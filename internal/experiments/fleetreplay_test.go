package experiments

import (
	"strings"
	"testing"

	"bettertogether/internal/fleet"
	"bettertogether/internal/obs/sessiontrace"
	"bettertogether/internal/onlineprof"
)

// TestFleetReplayDefaults runs the canonical 3-node experiment once and
// checks the outcome's accounting invariants and report shape.
func TestFleetReplayDefaults(t *testing.T) {
	out, err := FleetReplay(FleetReplayConfig{Seed: 1})
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	r := out.Result
	if r.Arrivals != 12 || r.Placed+r.Rejected != r.Arrivals {
		t.Fatalf("accounting broken: %+v", r)
	}
	if len(out.Trace.Arrivals) != r.Arrivals {
		t.Fatalf("trace length %d, result arrivals %d", len(out.Trace.Arrivals), r.Arrivals)
	}
	if out.Stats.Nodes != 3 {
		t.Fatalf("default registry size = %d, want 3", out.Stats.Nodes)
	}
	body := out.Render()
	for _, want := range []string{
		"Placement decisions", "Fleet nodes", "Fleet replay summary",
		"rejection rate", "p99 latency (s)",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

// TestFleetReplaySuppliedTrace pins that an explicit trace bypasses the
// generator entirely.
func TestFleetReplaySuppliedTrace(t *testing.T) {
	tr := fleet.Trace{Arrivals: []fleet.Arrival{
		{At: 0, App: "octree", Dwell: 1, Tasks: 2},
		{At: 2, App: "alexnet-sparse", Dwell: 1, Tasks: 2},
	}}
	out, err := FleetReplay(FleetReplayConfig{Trace: tr, Seed: 5})
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if out.Result.Arrivals != 2 || out.Result.Placed != 2 {
		t.Fatalf("supplied trace not replayed: %+v", out.Result)
	}
}

// TestFleetReplaySLOWiring pins the experiment-level SLO plumbing: the
// deadline reaches every session, the outcome carries the merged
// runtime counters, and the report grows the gated attainment rows —
// while a deadline-free run's report stays free of them.
func TestFleetReplaySLOWiring(t *testing.T) {
	tracer := sessiontrace.New(sessiontrace.Config{SampleRate: 1, Seed: 1})
	out, err := FleetReplay(FleetReplayConfig{Seed: 1, SLODeadline: 3, SessionTrace: tracer})
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if out.Result.SLO == nil {
		t.Fatal("no SLO section in the replay result")
	}
	if !out.SLOEnabled || out.SLO.Sessions != out.Result.SLO.Sessions {
		t.Fatalf("outcome SLO %+v (enabled=%v) disagrees with result %+v",
			out.SLO, out.SLOEnabled, out.Result.SLO)
	}
	if len(tracer.Snapshot()) == 0 {
		t.Fatal("tracer saw no sessions through the experiment wiring")
	}
	body := out.Render()
	for _, want := range []string{"slo attained", "slo p99 latency (s)"} {
		if !strings.Contains(body, want) {
			t.Errorf("render lacks %q", want)
		}
	}

	plain, err := FleetReplay(FleetReplayConfig{Seed: 1})
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if plain.SLOEnabled || plain.Result.SLO != nil {
		t.Fatal("deadline-free run reports SLO state")
	}
	if strings.Contains(plain.Render(), "slo ") {
		t.Fatal("deadline-free report carries SLO rows")
	}
}

// TestFleetReplayOnlineProfDeterministic pins that the feedback loop is
// part of the deterministic replay: two identical replays with online
// profiling fold the same observations, latch the same drifts, and
// re-plan the same number of times.
func TestFleetReplayOnlineProfDeterministic(t *testing.T) {
	cfg := FleetReplayConfig{
		Nodes: []fleet.NodeSpec{{Device: "pixel7a", Count: 2}, {Device: "jetson", Count: 2}},
		Gen: fleet.GenConfig{
			Pattern: fleet.PatternPoisson, Arrivals: 12, RatePerSec: 0.5,
			Apps: []string{"octree", "vision"}, MeanDwell: 20, Tasks: 12, Seed: 3,
		},
		OnlineProf: &onlineprof.Config{DriftThreshold: 0.05},
		Seed:       3,
	}
	first, err := FleetReplay(cfg)
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	second, err := FleetReplay(cfg)
	if err != nil {
		t.Fatalf("FleetReplay: %v", err)
	}
	if !first.OnlineProfEnabled || first.OnlineProf.Observations == 0 {
		t.Fatalf("online profiling observed nothing: %+v", first.OnlineProf)
	}
	if first.OnlineProf != second.OnlineProf {
		t.Fatalf("online-profiling stats differ between identical replays:\n%+v\n%+v",
			first.OnlineProf, second.OnlineProf)
	}
}
