package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
)

// fleetReplayGoldenPath holds per-arrival replay outcomes, recorded bit
// for bit. The fixture is never regenerated to make a change pass: a
// diff here means a placement, an admission decision, an admitted
// schedule or a modeled session time moved. Refusal reasons are left
// out, so the wording of an AdmissionError can change freely.
var fleetReplayGoldenPath = filepath.Join("testdata", "fleet_replay_golden.json")

// replayArrivalBits is one arrival's recorded outcome: where it landed,
// the schedule it was admitted with ("" when refused), and its Elapsed
// as IEEE-754 bits in hex so the comparison is exact.
type replayArrivalBits struct {
	Session  string `json:"session"`
	Node     string `json:"node"`
	Choice   int    `json:"choice"`
	Rejected bool   `json:"rejected"`
	Schedule string `json:"schedule"`
	Elapsed  string `json:"elapsed"`
}

// fleetReplayGoldenCase is one recorded replay.
type fleetReplayGoldenCase struct {
	Name     string              `json:"name"`
	Arrivals []replayArrivalBits `json:"arrivals"`
}

// admitSchedules records the schedule each session was admitted with,
// from the runtimes' Admit events.
type admitSchedules struct {
	mu    sync.Mutex
	sched map[string]string
}

// Emit implements obs.Sink.
func (a *admitSchedules) Emit(e obs.Event) {
	if e.Kind != obs.KindAdmit {
		return
	}
	a.mu.Lock()
	a.sched[e.Session] = e.Detail
	a.mu.Unlock()
}

// fleetReplayGoldenCases replays two shapes: the saturated one of
//
//	btfleet -nodes pixel7a=4,oneplus11=4,jetson=4 -apps octree,vision \
//	  -pattern poisson -arrivals 80 -rate 8 -mean-dwell 30 -sched-cache 256 -seed 1
//
// where most arrivals are refused on every node, and a fleet large
// enough that nothing is refused.
func fleetReplayGoldenCases(t *testing.T) []fleetReplayGoldenCase {
	t.Helper()
	shapes := []struct {
		name  string
		nodes string
		gen   GenConfig
	}{
		{"saturated", "pixel7a=4,oneplus11=4,jetson=4", GenConfig{
			Pattern: PatternPoisson, Arrivals: 80, RatePerSec: 8, MeanDwell: 30}},
		{"roomy", "pixel7a=8,oneplus11=8,jetson=8", GenConfig{
			Pattern: PatternPoisson, Arrivals: 24, RatePerSec: 1, MeanDwell: 5}},
	}
	var out []fleetReplayGoldenCase
	for _, sh := range shapes {
		specs, err := ParseNodeSpecs(sh.nodes)
		if err != nil {
			t.Fatal(err)
		}
		sh.gen.Apps = []string{"octree", "vision"}
		sh.gen.Tasks, sh.gen.Seed = 4, 1
		tr, err := Generate(sh.gen)
		if err != nil {
			t.Fatal(err)
		}
		sink := &admitSchedules{sched: map[string]string{}}
		f := mustFleet(t, Config{Nodes: specs, CacheCapacity: 256, Seed: 1, Events: sink})
		res, err := f.ReplayWith(tr, ReplayOptions{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		c := fleetReplayGoldenCase{Name: sh.name}
		for _, r := range res.Records {
			c.Arrivals = append(c.Arrivals, replayArrivalBits{
				Session:  r.Session,
				Node:     r.Node,
				Choice:   r.Choice,
				Rejected: r.Rejected,
				Schedule: sink.sched[r.Session],
				Elapsed:  fmt.Sprintf("%016x", math.Float64bits(r.Elapsed)),
			})
		}
		out = append(out, c)
	}
	return out
}

// TestFleetReplayGolden pins every arrival's outcome in both replays
// against the committed fixture.
func TestFleetReplayGolden(t *testing.T) {
	raw, err := os.ReadFile(fleetReplayGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []fleetReplayGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := fleetReplayGoldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("produced %d replays, fixture holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || len(got[i].Arrivals) != len(want[i].Arrivals) {
			t.Fatalf("replay %d is %s with %d arrivals, fixture has %s with %d",
				i, got[i].Name, len(got[i].Arrivals), want[i].Name, len(want[i].Arrivals))
		}
		bad := 0
		for j, w := range want[i].Arrivals {
			if g := got[i].Arrivals[j]; g != w {
				bad++
				if bad <= 5 {
					t.Errorf("%s arrival %d differs:\n got %+v\nwant %+v", want[i].Name, j, g, w)
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d arrivals differ from %s", want[i].Name, bad, len(want[i].Arrivals), fleetReplayGoldenPath)
		}
	}
}

// TestFleetReplayOnlineProfDeterministic pins that the feedback loop is
// part of the deterministic replay: two identical replays with online
// profiling fold the same observations, latch the same drifts, and
// re-plan the same number of times.
func TestFleetReplayOnlineProfDeterministic(t *testing.T) {
	tr, err := Generate(GenConfig{
		Pattern: PatternPoisson, Arrivals: 12, RatePerSec: 0.5,
		Apps: []string{"octree", "vision"}, MeanDwell: 20, Tasks: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	replay := func() obs.OnlineProfStats {
		f := mustFleet(t, Config{
			Nodes:      []NodeSpec{{Device: "pixel7a", Count: 2}, {Device: "jetson", Count: 2}},
			OnlineProf: &onlineprof.Config{DriftThreshold: 0.05},
			Seed:       3,
		})
		defer f.Close()
		if _, err := f.ReplayWith(tr, ReplayOptions{}); err != nil {
			t.Fatalf("ReplayWith: %v", err)
		}
		st, ok := f.OnlineProfStats()
		if !ok || st.Observations == 0 {
			t.Fatalf("online profiling observed nothing: %+v (enabled=%v)", st, ok)
		}
		return st
	}
	if first, second := replay(), replay(); first != second {
		t.Fatalf("online-profiling stats differ between identical replays:\n%+v\n%+v", first, second)
	}
}
