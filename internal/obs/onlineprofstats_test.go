package obs

import (
	"strings"
	"testing"
)

// TestServerMetricsIncludeOnlineProf wires the OnlineProf hook into the
// server and checks the bt_onlineprof_* families land on /metrics.
func TestServerMetricsIncludeOnlineProf(t *testing.T) {
	cfg := testServerConfig()
	cfg.OnlineProf = func() OnlineProfStats {
		return OnlineProfStats{
			Observations: 120, Cells: 7, LatchedCells: 1,
			DriftsTriggered: 2, DriftReplans: 2,
		}
	}
	code, body := get(t, NewHandler(cfg), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics → %d", code)
	}
	for _, want := range []string{
		"bt_onlineprof_observations_total 120",
		"bt_onlineprof_cells 7",
		"bt_onlineprof_drifts_total 2",
		"bt_onlineprof_replans_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Without the hook the families must stay absent.
	if _, plain := get(t, NewHandler(testServerConfig()), "/metrics"); strings.Contains(plain, "bt_onlineprof") {
		t.Error("onlineprof families exported without an OnlineProf hook")
	}
}

func TestPromOnlineProfExposition(t *testing.T) {
	var b strings.Builder
	err := PromOnlineProf(&b, OnlineProfStats{
		Observations: 9, Cells: 3, LatchedCells: 2,
		DriftsTriggered: 1, DriftReplans: 1,
	})
	if err != nil {
		t.Fatalf("PromOnlineProf: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bt_onlineprof_observations_total counter",
		"bt_onlineprof_observations_total 9",
		"# TYPE bt_onlineprof_cells gauge",
		"bt_onlineprof_cells 3",
		"bt_onlineprof_latched_cells 2",
		"bt_onlineprof_drifts_total 1",
		"bt_onlineprof_replans_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
		}
	}
}
