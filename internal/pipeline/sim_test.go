package pipeline

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// recordingGovernor wraps a governor and keeps a copy of the busy slice
// of its latest call, so a test can compare what two paths handed it.
type recordingGovernor struct {
	inner soc.Governor
	last  []core.PUClass
}

func (g *recordingGovernor) Multiplier(target core.PUClass, busyOthers []core.PUClass) float64 {
	g.last = append(g.last[:0], busyOthers...)
	return g.inner.Multiplier(target, busyOthers)
}

// thermalGovernor is examples/custom_device's governor: it throttles
// every PU by 8% per other busy class, so it reads the busy slice.
type thermalGovernor struct{}

func (thermalGovernor) Multiplier(_ core.PUClass, busyOthers []core.PUClass) float64 {
	return 1 - 0.08*float64(len(busyOthers))
}

// randomCostApp builds a synthetic application whose stages draw every
// cost field the model reads from rng.
func randomCostApp(rng *rand.Rand, nStages int) *core.Application {
	app, _ := testApp(nStages, 1)
	for i := range app.Stages {
		app.Stages[i].Cost = core.CostSpec{
			FLOPs:            math.Pow(10, 4+4*rng.Float64()),
			Bytes:            math.Pow(10, 3+5*rng.Float64()) * float64(rng.Intn(2)),
			ParallelFraction: rng.Float64(),
			Irregularity:     rng.Float64(),
			Divergence:       rng.Float64(),
			WorkItems:        float64(rng.Intn(1 << 16)),
			Dispatches:       float64(rng.Intn(4)),
		}
	}
	return app
}

// randomAssign draws a random contiguous stage→class assignment.
func randomAssign(rng *rand.Rand, nStages int, classes []core.PUClass) core.Schedule {
	perm := rng.Perm(len(classes))
	var assign []core.PUClass
	for pos := 0; pos < nStages; {
		run := nStages - pos
		if len(perm) > 1 {
			run = 1 + rng.Intn(run)
		}
		for k := 0; k < run; k++ {
			assign = append(assign, classes[perm[0]])
		}
		perm = perm[1:]
		pos += run
	}
	return core.Schedule{Assign: assign}
}

// randomBaseEnv draws a resident overlay mixing device classes, classes
// the device lacks, and poisoned intensities; nil a quarter of the time.
func randomBaseEnv(rng *rand.Rand, dev *soc.Device) soc.Env {
	if rng.Intn(4) == 0 {
		return nil
	}
	pool := append(dev.Classes(), "npu", "dsp", "aaa")
	env := soc.Env{}
	for _, c := range pool {
		if rng.Intn(3) != 0 {
			continue
		}
		v := rng.Float64()
		switch rng.Intn(6) {
		case 0:
			v = math.NaN()
		case 1:
			v = -v
		case 2:
			v += 1
		}
		env[c] = soc.Load{MemIntensity: v}
	}
	return env
}

// referenceEnv is the simulator's former per-reprice environment: a
// fresh map holding BaseEnv with every other busy chunk's load folded in
// through Env.Add.
func referenceEnv(s *simState, me int) soc.Env {
	e := soc.Env{}
	for class, load := range s.opts.BaseEnv {
		e[class] = load
	}
	for i := range s.chunks {
		if c := &s.chunks[i]; c.idx != me && c.busy {
			e.Add(c.pu, c.load)
		}
	}
	return e
}

// TestSimDenseEnvMatchesMapReference checks the simulator's dense
// environment against the map-building reference over random plans,
// BaseEnvs and busy states: Governor.Multiplier must receive the same
// sorted busy slice, and the estimate and clock multiplier must match
// Device.Estimate over the reference map bit for bit.
func TestSimDenseEnvMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var devs []*soc.Device
	for _, dev := range soc.Catalog() {
		thermal := *dev
		thermal.Governor = thermalGovernor{}
		devs = append(devs, dev, &thermal)
	}
	for trial := 0; trial < 400; trial++ {
		dev := *devs[rng.Intn(len(devs))]
		gov := &recordingGovernor{inner: dev.Governor}
		dev.Governor = gov
		nStages := 1 + rng.Intn(9)
		p, err := NewPlan(randomCostApp(rng, nStages), &dev, randomAssign(rng, nStages, dev.Classes()))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{BaseEnv: randomBaseEnv(rng, &dev)}.withDefaults(p)
		s := newSimState(p, opts, rand.New(rand.NewSource(1)))
		for i := range s.chunks {
			c := &s.chunks[i]
			c.busy = rng.Intn(3) != 0
			c.stagePos = rng.Intn(len(c.terms))
			c.load = soc.Load{MemIntensity: c.terms[c.stagePos].Intensity}
		}
		for me := range s.chunks {
			c := &s.chunks[me]
			ref := referenceEnv(s, me)
			wantBusy := ref.BusyClasses()
			cost := p.App.Stages[c.start+c.stagePos].Cost
			wantMult := gov.Multiplier(c.pu, wantBusy)
			want := dev.Estimate(cost, c.pu, ref)

			gotSec, gotMult := dev.EstimateIn(&c.terms[c.stagePos], s.envFor(me))
			if !slices.Equal(gov.last, wantBusy) {
				t.Fatalf("trial %d chunk %d: governor saw %v, reference busy %v", trial, me, gov.last, wantBusy)
			}
			if math.Float64bits(gotSec) != math.Float64bits(want) || math.Float64bits(gotMult) != math.Float64bits(wantMult) {
				t.Fatalf("trial %d chunk %d: estimate %v mult %v, reference %v mult %v",
					trial, me, gotSec, gotMult, want, wantMult)
			}
		}
	}
}

// simBenchPlan is a four-chunk, nine-stage plan on the Pixel 7a — a
// BetterTogether-shaped schedule with every CPU cluster and the GPU busy.
func simBenchPlan(tb testing.TB) *Plan {
	tb.Helper()
	app, _ := testApp(9, 5e6)
	p, err := NewPlan(app, soc.NewPixel7a(), core.Schedule{Assign: []core.PUClass{
		"little", "gpu", "gpu", "gpu", "big", "big", "medium", "medium", "medium"}})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestSimEngineAllocsFlat pins that a simulated run's allocations are
// per run, not per event: ten times the tasks allocates the same.
func TestSimEngineAllocsFlat(t *testing.T) {
	p := simBenchPlan(t)
	base := soc.Env{"big": {MemIntensity: 0.3}, "npu": {MemIntensity: 0.5}}
	allocs := func(tasks int) float64 {
		return testing.AllocsPerRun(20, func() {
			SimEngine{}.Run(context.Background(), p, Options{Tasks: tasks, Warmup: 5, Seed: 7, BaseEnv: base})
		})
	}
	a30, a300 := allocs(30), allocs(300)
	if a30 != a300 {
		t.Errorf("allocs per run: %v at 30 tasks, %v at 300", a30, a300)
	}
}

// TestSimEngineConcurrentSharedPlan runs one shared *Plan from many
// goroutines with distinct seeds (each drawing a pooled RNG) and checks
// every result equals the serial run's bits.
func TestSimEngineConcurrentSharedPlan(t *testing.T) {
	p := simBenchPlan(t)
	base := soc.Env{"gpu": {MemIntensity: 0.2}}
	const seeds = 8
	run := func(seed int64) Result {
		return SimEngine{}.Run(context.Background(), p, Options{Tasks: 30, Warmup: 5, Seed: seed, BaseEnv: base})
	}
	same := func(a, b Result) bool {
		if math.Float64bits(a.PerTask) != math.Float64bits(b.PerTask) ||
			math.Float64bits(a.Elapsed) != math.Float64bits(b.Elapsed) ||
			math.Float64bits(a.EnergyJ) != math.Float64bits(b.EnergyJ) {
			return false
		}
		eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		return slices.EqualFunc(a.Completions, b.Completions, eq) && slices.EqualFunc(a.ChunkBusy, b.ChunkBusy, eq)
	}
	want := make([]Result, seeds)
	for i := range want {
		want[i] = run(int64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan int64, 4*seeds)
	for g := 0; g < 4*seeds; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if !same(run(seed), want[seed]) {
					errs <- seed
					return
				}
			}
		}(int64(g % seeds))
	}
	wg.Wait()
	close(errs)
	for seed := range errs {
		t.Errorf("seed %d: concurrent run differs from the serial run", seed)
	}
}

// BenchmarkSimEngineRun times one autotuning-sized simulated run (30
// tasks after 5 warmup) of simBenchPlan.
func BenchmarkSimEngineRun(b *testing.B) {
	p := simBenchPlan(b)
	opts := Options{Tasks: 30, Warmup: 5, Seed: 7}
	b.ReportAllocs()
	for b.Loop() {
		SimEngine{}.Run(context.Background(), p, opts)
	}
}
