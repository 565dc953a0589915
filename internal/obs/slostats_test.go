package obs

import (
	"strings"
	"testing"
	"time"

	"bettertogether/internal/metrics"
)

func TestSLOStatsMergeAndFraction(t *testing.T) {
	var s SLOStats
	if got := s.AttainedFraction(); got != "0" {
		t.Fatalf("empty fraction %q", got)
	}
	h := &metrics.Histogram{}
	h.Observe(2 * time.Second)
	s.Merge(SLOStats{Sessions: 3, Attained: 2, Missed: 1, Latency: h})
	s.Merge(SLOStats{Sessions: 1, Attained: 1})
	if s.Sessions != 4 || s.Attained != 3 || s.Missed != 1 {
		t.Fatalf("merged %+v", s)
	}
	if s.Latency == nil || s.Latency.Count() != 1 {
		t.Fatalf("latency merge: %v", s.Latency)
	}
	if got := s.AttainedFraction(); got != "0.7500" {
		t.Fatalf("fraction %q", got)
	}
}

func TestPromSLO(t *testing.T) {
	h := &metrics.Histogram{}
	h.Observe(1500 * time.Millisecond)
	h.Observe(4 * time.Second)
	var b strings.Builder
	err := SLOStats{Sessions: 2, Attained: 1, Missed: 1, Latency: h}.PromSLO(&b)
	if err != nil {
		t.Fatalf("PromSLO: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bt_slo_sessions_total counter",
		"bt_slo_sessions_total 2",
		"bt_slo_attained_total 1",
		"bt_slo_missed_total 1",
		"bt_slo_attainment_ratio 0.5",
		"# TYPE bt_slo_latency_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)

	// No latency histogram: the summary family is omitted entirely.
	b.Reset()
	_ = SLOStats{Sessions: 1, Attained: 1}.PromSLO(&b)
	if strings.Contains(b.String(), "bt_slo_latency_seconds") {
		t.Fatal("latency summary written without observations")
	}
}
