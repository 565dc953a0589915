package pipeline_test

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bettertogether/internal/obs"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
	"bettertogether/pkg/btapps"
)

// simGoldenPath holds the simulator's results over the paper grid,
// recorded bit for bit. The fixture is never regenerated to make a
// change pass: a diff here means the modeled timeline moved.
var simGoldenPath = filepath.Join("testdata", "sim_golden.json")

// simGoldenCase is one recorded run. Floats are stored as their IEEE-754
// bits in hex so the comparison is exact.
type simGoldenCase struct {
	Name        string   `json:"name"`
	Schedule    string   `json:"schedule"`
	PerTask     string   `json:"per_task"`
	Elapsed     string   `json:"elapsed"`
	EnergyJ     string   `json:"energy_j"`
	AvgWatts    string   `json:"avg_watts"`
	ChunkBusy   []string `json:"chunk_busy"`
	Completions string   `json:"completions"`
	Observed    string   `json:"observed"`
}

func hexBits(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// stageDoneHash folds every StageDone event the engine emits into a hash.
type stageDoneHash struct{ h uint64 }

func (s *stageDoneHash) Emit(e obs.Event) {
	if e.Kind != obs.KindStageDone {
		return
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%d|%d|%s|%s|%d", s.h, e.Chunk, e.Task, e.Stage, e.PU, int64(e.Dur))
	s.h = h.Sum64()
}

// goldenEnvs returns the BaseEnv variants every grid cell's leading
// candidates also run under: a resident on the first chunk's own class,
// a class the device does not have, and poisoned intensities (NaN,
// negative, past full bandwidth) that Env.Add must clamp where a chunk
// shares the class and that stay raw where none does.
func goldenEnvs(dev *soc.Device, plan *pipeline.Plan) []struct {
	name string
	env  soc.Env
} {
	classes := dev.Classes()
	poison := soc.Env{
		classes[0]:              {MemIntensity: math.NaN()},
		classes[len(classes)-1]: {MemIntensity: -0.4},
		"dsp":                   {MemIntensity: 1.7},
	}
	if len(classes) > 2 {
		poison[classes[1]] = soc.Load{MemIntensity: 1.3}
	}
	return []struct {
		name string
		env  soc.Env
	}{
		{"own", soc.Env{plan.Chunks[0].PU: {MemIntensity: 0.35}}},
		{"foreign", soc.Env{"npu": {MemIntensity: 0.6}}},
		{"poison", poison},
	}
}

// simGoldenCases runs the paper grid — three applications on the four
// catalog devices — through profiling and BetterTogether candidate
// generation, then simulates every candidate at the autotuning options
// (30 tasks after 5 warmup) with metrics, trace and events attached. The
// first three candidates of each cell also run under each goldenEnvs
// variant.
func simGoldenCases(t *testing.T) []simGoldenCase {
	t.Helper()
	var out []simGoldenCase
	cell := 0
	for _, name := range []string{"alexnet-dense", "alexnet-sparse", "octree"} {
		app, err := btapps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range soc.Catalog() {
			seed := int64(1000 + cell)
			cell++
			tables := profiler.ProfileBoth(app, dev, profiler.Config{Seed: seed})
			cands := sched.New(app, dev, tables).Candidates(sched.BetterTogether)
			if len(cands) == 0 {
				t.Fatalf("%s on %s: no candidates", name, dev.Name)
			}
			for i, c := range cands {
				plan, err := pipeline.NewPlan(app, dev, c.Schedule)
				if err != nil {
					t.Fatal(err)
				}
				id := fmt.Sprintf("%s/%s/c%02d", name, dev.Name, i)
				out = append(out, simGoldenRun(t, id, plan, seed, nil))
				if i >= 3 {
					continue
				}
				for _, v := range goldenEnvs(dev, plan) {
					out = append(out, simGoldenRun(t, id+"/"+v.name, plan, seed, v.env))
				}
			}
		}
	}
	return out
}

func simGoldenRun(t *testing.T, name string, plan *pipeline.Plan, seed int64, base soc.Env) simGoldenCase {
	t.Helper()
	tl := &trace.Timeline{}
	ev := &stageDoneHash{}
	opts := pipeline.Options{
		Tasks: 30, Warmup: 5, Seed: seed, BaseEnv: base,
		Metrics: pipeline.NewMetrics(plan), Trace: tl, Events: ev,
	}
	r := pipeline.SimEngine{}.Run(context.Background(), plan, opts)
	if r.Err != nil {
		t.Fatalf("%s: %v", name, r.Err)
	}
	h := fnv.New64a()
	for _, c := range r.Completions {
		fmt.Fprintf(h, "%016x,", math.Float64bits(c))
	}
	obsHash := fnv.New64a()
	fmt.Fprintf(obsHash, "%016x|", ev.h)
	for _, s := range tl.Spans {
		fmt.Fprintf(obsHash, "%d,%s,%d,%d,%016x,%016x;", s.Chunk, s.PU, s.StageIndex, s.Task,
			math.Float64bits(s.Start), math.Float64bits(s.End))
	}
	gc := simGoldenCase{
		Name:        name,
		Schedule:    plan.Schedule.String(),
		PerTask:     hexBits(r.PerTask),
		Elapsed:     hexBits(r.Elapsed),
		EnergyJ:     hexBits(r.EnergyJ),
		AvgWatts:    hexBits(r.AvgWatts),
		Completions: fmt.Sprintf("%d:%016x", len(r.Completions), h.Sum64()),
		Observed:    fmt.Sprintf("%d:%016x", len(tl.Spans), obsHash.Sum64()),
	}
	for _, b := range r.ChunkBusy {
		gc.ChunkBusy = append(gc.ChunkBusy, hexBits(b))
	}
	return gc
}

// TestSimEngineGolden pins the simulator's modeled results, bit for
// bit, against the committed fixture: per-task latency, elapsed time,
// energy, average power, per-chunk busy fractions, and hashes of the
// completion timestamps and of the observed spans and events.
func TestSimEngineGolden(t *testing.T) {
	raw, err := os.ReadFile(simGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []simGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := simGoldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("grid produced %d cases, fixture holds %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			bad++
			if bad <= 5 {
				t.Errorf("case %d differs:\n got %s\nwant %s", i, g, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from %s", bad, len(want), simGoldenPath)
	}
}
