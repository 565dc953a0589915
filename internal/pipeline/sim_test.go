package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
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
		s := newSimState(p, opts, nil, p.Device.NewEnvOverlay(opts.BaseEnv), simMemoCap)
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
	// Under -race a dropped pooled run state is rebuilt on a random
	// share of runs, so the counts jitter; the exact check needs no race.
	if a30 != a300 && !raceEnabled {
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
				if !sameResultBits(run(seed), want[seed]) {
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

// sameResultBits reports whether two runs' modeled results are equal bit
// for bit.
func sameResultBits(a, b Result) bool {
	if math.Float64bits(a.PerTask) != math.Float64bits(b.PerTask) ||
		math.Float64bits(a.Elapsed) != math.Float64bits(b.Elapsed) ||
		math.Float64bits(a.EnergyJ) != math.Float64bits(b.EnergyJ) ||
		math.Float64bits(a.EnergyPerTaskJ) != math.Float64bits(b.EnergyPerTaskJ) {
		return false
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return slices.EqualFunc(a.Completions, b.Completions, eq) && slices.EqualFunc(a.ChunkBusy, b.ChunkBusy, eq)
}

// TestSimNoiseMatchesSimEngine checks that runs reading one shared noise
// sequence equal SimEngine's own runs bit for bit: for plans with
// different chunk counts, with set and with defaulted options, and on
// devices whose NoiseSigma is positive, zero or NaN. A plan of another
// device must not read the sequence.
func TestSimNoiseMatchesSimEngine(t *testing.T) {
	p := simBenchPlan(t)
	base := soc.Env{"gpu": {MemIntensity: 0.2}, "npu": {MemIntensity: 0.4}}
	for _, sigma := range []float64{p.Device.NoiseSigma, 0, math.NaN()} {
		dev := *p.Device
		dev.NoiseSigma = sigma
		var plans []*Plan
		for _, assign := range [][]core.PUClass{
			p.Schedule.Assign,
			{"gpu", "gpu", "gpu", "gpu", "big", "big", "big", "medium", "medium"},
		} {
			plan, err := NewPlan(p.App, &dev, core.Schedule{Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, plan)
		}
		for _, opts := range []Options{
			{Tasks: 12, Warmup: 2, Seed: 9, BaseEnv: base},
			{Seed: 4, Warmup: -1},
		} {
			noise := NewSimNoise(plans[0], opts)
			for _, plan := range plans {
				want := SimEngine{}.Run(context.Background(), plan, opts)
				got := noise.Run(context.Background(), plan)
				if got.Err != nil || !sameResultBits(got, want) {
					t.Errorf("sigma %v, %s, tasks %d: shared-noise run (%v, err %v) differs from SimEngine (%v)",
						sigma, plan.Schedule, opts.Tasks, got.PerTask, got.Err, want.PerTask)
				}
			}
		}
	}

	other, err := NewPlan(p.App, soc.NewJetson(), core.Schedule{Assign: slices.Repeat([]core.PUClass{"gpu"}, len(p.App.Stages))})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("a plan of another device read the sequence")
		}
	}()
	NewSimNoise(p, Options{Seed: 1}).Run(context.Background(), other)
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

// tieDevice is a noiseless two-PU device on which a stage with no work
// costs exactly 2^-10 s (launch overhead alone) under any environment,
// so completions on both PUs land on the same instants bit for bit.
func tieDevice() *soc.Device {
	pu := func(class core.PUClass) soc.PU {
		return soc.PU{
			Class: class, Kind: core.KindCPU, Cores: 1, BaseGHz: 1, EffFlopsPerCycle: 1,
			LaunchOverheadSec: 1.0 / 1024, MemBWGBs: 1, IdleWatts: 0.1, BusyWatts: 1,
		}
	}
	return &soc.Device{
		Name: "tie", PUs: []soc.PU{pu("a"), pu("b")},
		DRAMBWGBs: 10, Governor: soc.NominalGovernor{},
	}
}

// doneOrder records StageDone events as "chunk/task/stage".
type doneOrder []string

func (d *doneOrder) Emit(e obs.Event) {
	if e.Kind == obs.KindStageDone {
		*d = append(*d, fmt.Sprintf("%d/%d/%s", e.Chunk, e.Task, e.Stage))
	}
}

// TestSameTimeTiesUnderRescheduling pins the simulator's tie rule:
// completions due at the same instant run in the order their chunks were
// last rescheduled. Every event re-prices the chunk that continues with
// its next stage first and then the other busy chunks in index order, so
// at 2d chunk 0 (rescheduled first at d) completes before chunk 1, and at
// 3d chunk 1 (continuing into stage c at 2d) completes before chunk 0.
func TestSameTimeTiesUnderRescheduling(t *testing.T) {
	app, _ := testApp(3, 0)
	for i := range app.Stages {
		app.Stages[i].Cost = core.CostSpec{}
	}
	p := mustPlan(t, app, tieDevice(), core.Schedule{Assign: []core.PUClass{"a", "b", "b"}})
	var order doneOrder
	tl := &trace.Timeline{}
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 4, Events: &order, Trace: tl})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	want := []string{"0/0/a", "0/1/a", "1/0/b", "1/0/c", "0/2/a"}
	if !slices.Equal(order[:len(want)], want) {
		t.Fatalf("completion order = %v, want prefix %v", order, want)
	}
	const d = 1.0 / 1024
	for i, end := range []float64{d, 2 * d, 2 * d, 3 * d, 3 * d} {
		if got := tl.Spans[i].End; got != end {
			t.Fatalf("span %d (%s) ends at %v, want exactly %v", i, want[i], got, end)
		}
	}
}

// sameOutcomeBits reports whether two executor outcomes are equal bit
// for bit.
func sameOutcomeBits(a, b runOutcome) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.measureStart, b.measureStart) && eq(a.energyJ, b.energyJ) &&
		eq(a.energyPerTaskJ, b.energyPerTaskJ) && eq(a.avgWatts, b.avgWatts) &&
		slices.EqualFunc(a.completions, b.completions, eq) && slices.EqualFunc(a.chunkBusy, b.chunkBusy, eq)
}

// FuzzSimEngine runs random small plans under random options and
// BaseEnvs (foreign classes and NaN, negative and saturating loads
// included) and checks that the estimate memo changes nothing (a run
// with the cap lowered to 0 estimates every reprice directly), that a
// shared-noise run equals SimEngine's, that repeats are identical, and
// that the result is well formed.
func FuzzSimEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, stages, device, tasks, warmup, buffers uint8) {
		rng := rand.New(rand.NewSource(seed))
		dev := *soc.Catalog()[int(device)%4]
		if device&4 != 0 {
			dev.Governor = thermalGovernor{}
		}
		if device&8 != 0 {
			dev.NoiseSigma = 0
		}
		nStages := 1 + int(stages)%9
		p, err := NewPlan(randomCostApp(rng, nStages), &dev, randomAssign(rng, nStages, dev.Classes()))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Tasks: 1 + int(tasks)%40, Warmup: int(warmup)%8 - 1, Buffers: int(buffers) % 8,
			Seed: rng.Int63(), BaseEnv: randomBaseEnv(rng, &dev),
		}

		o := opts.withDefaults(p)
		noise := drawNoise(p, o)
		run := func(memoCap int) runOutcome {
			return newSimState(p, o, noise, dev.NewEnvOverlay(o.BaseEnv), memoCap).run()
		}
		if !sameOutcomeBits(run(simMemoCap), run(0)) {
			t.Fatal("memoized run differs from the direct run")
		}

		r := SimEngine{}.Run(context.Background(), p, opts)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if again := (SimEngine{}).Run(context.Background(), p, opts); !sameResultBits(again, r) {
			t.Fatal("repeated run differs")
		}
		if shared := NewSimNoise(p, opts).Run(context.Background(), p); !sameResultBits(shared, r) {
			t.Fatal("shared-noise run differs from SimEngine")
		}

		if len(r.Completions) != o.Tasks {
			t.Fatalf("%d completions, want %d", len(r.Completions), o.Tasks)
		}
		if !slices.IsSorted(r.Completions) {
			t.Fatalf("completions decrease: %v", r.Completions)
		}
		for i, b := range r.ChunkBusy {
			if !(b > 0 && b <= 1+1e-9) {
				t.Fatalf("chunk %d busy fraction %v", i, b)
			}
		}
		if !(r.EnergyJ > 0) || math.IsInf(r.EnergyJ, 0) || !(r.PerTask >= 0) || math.IsInf(r.PerTask, 0) {
			t.Fatalf("energy %v J, per task %v s", r.EnergyJ, r.PerTask)
		}
	})
}

// TestSimEngineWideDeviceEstimatesDirectly runs a plan whose memo key
// count overflows int64 (38 two-stage chunks: 38·3^38 keys): the run
// must estimate directly, as with the memo cap lowered to 0.
func TestSimEngineWideDeviceEstimatesDirectly(t *testing.T) {
	const classes = 38
	dev := &soc.Device{Name: "wide", DRAMBWGBs: 40, Governor: soc.NominalGovernor{}}
	var assign []core.PUClass
	for k := 0; k < classes; k++ {
		class := core.PUClass(fmt.Sprintf("c%02d", k))
		dev.PUs = append(dev.PUs, soc.PU{
			Class: class, Kind: core.KindCPU, Cores: 1, BaseGHz: 1, EffFlopsPerCycle: 1,
			LaunchOverheadSec: 1e-5, MemBWGBs: 2, IdleWatts: 0.1, BusyWatts: 1,
		})
		assign = append(assign, class, class)
	}
	app, _ := testApp(2*classes, 1e6)
	p := mustPlan(t, app, dev, core.Schedule{Assign: assign})
	opts := Options{Tasks: 4}.withDefaults(p)
	noise := drawNoise(p, opts)
	got := newSimState(p, opts, noise, dev.NewEnvOverlay(nil), simMemoCap).run()
	want := newSimState(p, opts, noise, dev.NewEnvOverlay(nil), 0).run()
	if len(got.completions) != 4 || !sameOutcomeBits(got, want) {
		t.Fatalf("completions %v, want the direct run's %v", got.completions, want.completions)
	}
}
