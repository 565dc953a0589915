package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bettertogether/internal/obs/sessiontrace"
)

// spillFleetConfig mirrors the CI spillover smoke: tight bandwidth
// headroom over a bursty vision/octree mix, so at least one arrival
// spills past its first-choice node.
func spillFleetConfig() (Config, GenConfig) {
	return Config{
			Nodes: []NodeSpec{
				{Device: "jetson", Count: 1},
				{Device: "pixel7a", Count: 1},
				{Device: "oneplus11", Count: 1},
			},
			Seed:         7,
			BWHeadroom:   1.0,
			CoreHeadroom: 100,
		}, GenConfig{
			Pattern: PatternBursty, Arrivals: 6, Burst: 3,
			Apps: []string{"vision", "octree"}, Seed: 7,
		}
}

func TestReplaySLOAttainment(t *testing.T) {
	cfg, gen := spillFleetConfig()
	tr, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	f := mustFleet(t, cfg)
	res, err := f.ReplayWith(tr, ReplayOptions{SLODeadline: 3})
	if err != nil {
		t.Fatalf("ReplayWith: %v", err)
	}
	if res.SLO == nil {
		t.Fatal("replay with -slo-deadline produced no SLO section")
	}
	completed := 0
	for i, rec := range res.Records {
		if rec.Rejected {
			if rec.SLO != "" || rec.Deadline != 0 {
				t.Fatalf("rejected record %d carries SLO fields: %+v", i, rec)
			}
			continue
		}
		if rec.Deadline != 3 {
			t.Fatalf("record %d deadline %v, want replay-wide 3", i, rec.Deadline)
		}
		if rec.Elapsed <= 0 {
			continue // never departed (held past the horizon)
		}
		completed++
		want := "missed"
		if rec.Elapsed <= rec.Deadline {
			want = "attained"
		}
		if rec.SLO != want {
			t.Fatalf("record %d verdict %q (elapsed %v vs deadline %v)", i, rec.SLO, rec.Elapsed, rec.Deadline)
		}
	}
	if res.SLO.Sessions != completed || res.SLO.Attained+res.SLO.Missed != res.SLO.Sessions {
		t.Fatalf("SLO summary %+v over %d completed sessions", res.SLO, completed)
	}
	if res.SLO.Sessions > 0 && (res.SLO.P50 <= 0 || res.SLO.P99 < res.SLO.P50) {
		t.Fatalf("degenerate SLO quantiles %+v", res.SLO)
	}
	// The fleet-merged runtime counters agree with the replay summary.
	stats, ok := f.SLOStats()
	if !ok {
		t.Fatal("fleet SLOStats disabled after an SLO replay")
	}
	if stats.Sessions != res.SLO.Sessions || stats.Attained != res.SLO.Attained || stats.Missed != res.SLO.Missed {
		t.Fatalf("runtime counters %+v disagree with replay summary %+v", stats, res.SLO)
	}
}

func TestArrivalDeadlineOverridesReplayDefault(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "jetson", Count: 1}}})
	tr := Trace{Arrivals: []Arrival{
		{At: 0, App: "octree", Dwell: 1, Tasks: 2, Deadline: 100},
		{At: 0.5, App: "octree", Dwell: 1, Tasks: 2},
	}}
	res, err := f.ReplayWith(tr, ReplayOptions{SLODeadline: 0.000001})
	if err != nil {
		t.Fatalf("ReplayWith: %v", err)
	}
	if res.Records[0].Deadline != 100 || res.Records[0].SLO != "attained" {
		t.Fatalf("per-arrival deadline ignored: %+v", res.Records[0])
	}
	if res.Records[1].Deadline != 0.000001 || res.Records[1].SLO != "missed" {
		t.Fatalf("replay-wide default not applied: %+v", res.Records[1])
	}
}

func TestReplayNegativeSLODeadline(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "jetson", Count: 1}}})
	if _, err := f.ReplayWith(Trace{}, ReplayOptions{SLODeadline: -1}); err == nil {
		t.Fatal("negative SLO deadline accepted")
	}
}

func TestReplayZeroDeadlineOutputUnchanged(t *testing.T) {
	cfg, gen := spillFleetConfig()
	tr, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustFleet(t, cfg).ReplayWith(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	raw, _ := json.Marshal(res)
	for _, forbidden := range []string{`"slo"`, `"deadline"`} {
		if bytes.Contains(raw, []byte(forbidden)) {
			t.Fatalf("zero-deadline replay JSON carries %s:\n%s", forbidden, raw)
		}
	}
}

// TestReplayTraceByteIdentical pins the tentpole determinism guarantee:
// the same seed and the same fleet trace produce a byte-identical
// sampled span set across two independent replays.
func TestReplayTraceByteIdentical(t *testing.T) {
	cfg, gen := spillFleetConfig()
	tr, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	replay := func() ([]byte, ReplayResult) {
		tracer := sessiontrace.New(sessiontrace.Config{SampleRate: 1, Seed: cfg.Seed})
		c := cfg
		c.Trace = tracer
		f := mustFleet(t, c)
		res, err := f.ReplayWith(tr, ReplayOptions{SLODeadline: 3})
		if err != nil {
			t.Fatalf("ReplayWith: %v", err)
		}
		raw, err := json.Marshal(tracer.Snapshot())
		if err != nil {
			t.Fatalf("marshal spans: %v", err)
		}
		return raw, res
	}
	rawA, resA := replay()
	rawB, _ := replay()
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("sampled span sets diverged across replays:\n%s\n%s", rawA, rawB)
	}

	// The smoke config spills, and the spillover session's trace carries
	// the causal chain: refused attempts under the placement span, and a
	// spillover annotation naming the choice rank.
	if resA.Spilled == 0 {
		t.Fatal("spillover config produced no spills; trace assertions are vacuous")
	}
	var docs []sessiontrace.TraceDoc
	if err := json.Unmarshal(rawA, &docs); err != nil {
		t.Fatal(err)
	}
	spilled := false
	for _, d := range docs {
		for _, s := range d.Spans {
			if s.Kind == sessiontrace.KindPlacement && strings.HasPrefix(s.Detail, "spillover") {
				spilled = true
				// The placement span must have at least one refused attempt
				// hanging off it — the causal record of why it spilled.
				attempts := 0
				for _, c := range d.Spans {
					if c.Kind == sessiontrace.KindAttempt && c.Parent == s.ID {
						attempts++
					}
				}
				if attempts == 0 {
					t.Fatalf("spillover trace %s has no refusal attempts under placement", d.Session)
				}
			}
		}
		if d.Verdict == "" {
			t.Fatalf("trace %s finished without a verdict", d.Session)
		}
	}
	if !spilled {
		t.Fatal("no trace recorded a spillover placement")
	}
}

// TestSampledReplaySubset pins partial sampling under a real replay: a
// 0.5-rate tracer retains a strict, deterministic subset of sessions.
func TestSampledReplaySubset(t *testing.T) {
	cfg, gen := spillFleetConfig()
	gen.Arrivals = 12
	tr, err := Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	sampled := func() []string {
		tracer := sessiontrace.New(sessiontrace.Config{SampleRate: 0.5, Seed: cfg.Seed})
		c := cfg
		c.Trace = tracer
		if _, err := mustFleet(t, c).ReplayWith(tr, ReplayOptions{}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		var names []string
		for _, d := range tracer.Snapshot() {
			names = append(names, d.Session)
		}
		return names
	}
	a, b := sampled(), sampled()
	if len(a) == 0 || len(a) == len(tr.Arrivals) {
		t.Fatalf("rate 0.5 sampled %d/%d sessions", len(a), len(tr.Arrivals))
	}
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("sampled sets diverged: %v vs %v", a, b)
	}
}
