package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// testApp builds a synthetic application with per-stage costs but
// countable no-op kernels.
func testApp(nStages int, flops float64) (*core.Application, *atomic.Int64) {
	var runs atomic.Int64
	stages := make([]core.Stage, nStages)
	for i := range stages {
		kern := func(to *core.TaskObject, par core.ParallelFor) {
			par(64, func(lo, hi int) {})
			runs.Add(1)
		}
		stages[i] = core.Stage{
			Name: string(rune('a' + i)),
			CPU:  kern, GPU: kern,
			Cost: core.CostSpec{
				FLOPs: flops, Bytes: flops / 4, ParallelFraction: 0.99,
				Divergence: 0.1, Irregularity: 0.1, WorkItems: 1 << 14,
			},
		}
	}
	app := &core.Application{
		Name:   "synthetic",
		Stages: stages,
		NewTask: func() *core.TaskObject {
			return core.NewTaskObject(nil, nil)
		},
	}
	return app, &runs
}

func mustPlan(t *testing.T, app *core.Application, dev *soc.Device, s core.Schedule) *Plan {
	t.Helper()
	p, err := NewPlan(app, dev, s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlanValidates(t *testing.T) {
	app, _ := testApp(4, 1e6)
	dev := soc.NewPixel7a()
	if _, err := NewPlan(app, dev, core.Schedule{Assign: []core.PUClass{"big", "big"}}); err == nil {
		t.Error("wrong-length schedule accepted")
	}
	if _, err := NewPlan(app, dev, core.Schedule{
		Assign: []core.PUClass{"big", "gpu", "big", "gpu"}}); err == nil {
		t.Error("contiguity violation accepted")
	}
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}})
	if len(p.Chunks) != 2 {
		t.Fatalf("chunks = %v", p.Chunks)
	}
	if p.Backend(0) != core.BackendCPU || p.Backend(1) != core.BackendGPU {
		t.Error("backends wrong")
	}
}

// TestPlanValidateAllocatesNothing pins that re-validating a compiled
// plan, as the engine driver does before every run, allocates nothing.
func TestPlanValidateAllocatesNothing(t *testing.T) {
	p := simBenchPlan(t)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Plan.Validate allocates %v times per call, want 0", allocs)
	}
}

// TestPlanValidateErrors pins the error each hand-built inconsistency
// reports.
func TestPlanValidateErrors(t *testing.T) {
	app, _ := testApp(4, 1e6)
	good := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}}
	chunks := good.Chunks()
	dup := soc.NewPixel7a()
	dup.PUs[2].Class = "big"
	for _, tc := range []struct {
		name string
		plan *Plan
		want string
	}{
		{"unknown class", &Plan{App: app, Device: soc.NewPixel7a(), Schedule: core.Schedule{Assign: []core.PUClass{"big", "npu", "npu", "gpu"}}},
			`core: schedule uses unknown PU class "npu"`},
		{"split class", &Plan{App: app, Device: soc.NewPixel7a(), Schedule: core.Schedule{Assign: []core.PUClass{"big", "gpu", "gpu", "big"}}},
			`core: contiguity violated: class "big" hosts two separate chunks`},
		{"duplicate device class", &Plan{App: app, Device: dup, Schedule: good, Chunks: chunks},
			`soc: device "pixel7a" has duplicate class "big"`},
		{"chunk count", &Plan{App: app, Device: soc.NewPixel7a(), Schedule: good, Chunks: chunks[:1]},
			"pipeline: plan has 1 chunks, schedule compiles to 2"},
		{"chunk bounds", &Plan{App: app, Device: soc.NewPixel7a(), Schedule: good, Chunks: []core.Chunk{chunks[0], {PU: "gpu", Start: 3, End: 4}}},
			"pipeline: plan chunk 1 is {PU:gpu Start:3 End:4}, schedule compiles to {PU:gpu Start:2 End:4}"},
	} {
		if err := tc.plan.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	app, _ := testApp(6, 5e6)
	dev := soc.NewPixel7a()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu", "gpu", "little"}}
	p := mustPlan(t, app, dev, s)
	a := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 42})
	b := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 42})
	if a.PerTask != b.PerTask || a.Elapsed != b.Elapsed {
		t.Errorf("same seed, different results: %v vs %v", a, b)
	}
	c := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 43})
	if a.PerTask == c.PerTask {
		t.Error("different seeds should perturb noise")
	}
}

func TestSimulateCompletionCountAndMonotonicity(t *testing.T) {
	app, _ := testApp(5, 2e6)
	dev := soc.NewJetson()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "big", "gpu", "gpu"}}
	p := mustPlan(t, app, dev, s)
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 30, Warmup: 3, Seed: 1})
	if len(r.Completions) != 30 {
		t.Fatalf("completions = %d, want 30", len(r.Completions))
	}
	for i := 1; i < len(r.Completions); i++ {
		if r.Completions[i] <= r.Completions[i-1] {
			t.Fatal("completions not strictly increasing")
		}
	}
	if r.PerTask <= 0 || r.Elapsed <= 0 {
		t.Errorf("degenerate metrics: %v", r)
	}
	if len(r.ChunkBusy) != 2 {
		t.Fatalf("chunk busy = %v", r.ChunkBusy)
	}
	for i, b := range r.ChunkBusy {
		if b <= 0 || b > 1 {
			t.Errorf("chunk %d busy fraction %v", i, b)
		}
	}
}

func TestSimulateSteadyStatePeriodBounds(t *testing.T) {
	// With noise disabled, the steady-state period must lie between the
	// bottleneck chunk's isolated service time and its fully-interfered
	// service time: the realized environment is a duty-cycled mix of the
	// two, which is precisely the effect the interference-aware profiler
	// exists to capture.
	app, _ := testApp(4, 8e6)
	dev := soc.NewJetson()
	dev.NoiseSigma = 0
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}}
	p := mustPlan(t, app, dev, s)
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 40, Warmup: 10, Seed: 1})

	cost := app.Stages[0].Cost
	envB := soc.Env{core.ClassGPU: {MemIntensity: dev.Intensity(cost, core.ClassGPU)}}
	envG := soc.Env{core.ClassBig: {MemIntensity: dev.Intensity(cost, core.ClassBig)}}
	isoBig := 2 * dev.Estimate(cost, core.ClassBig, nil)
	isoGPU := 2 * dev.Estimate(cost, core.ClassGPU, nil)
	heavyBig := 2 * dev.Estimate(cost, core.ClassBig, envB)
	heavyGPU := 2 * dev.Estimate(cost, core.ClassGPU, envG)
	lower := math.Max(isoBig, isoGPU)
	upper := math.Max(heavyBig, heavyGPU)
	if r.PerTask < lower*0.999 || r.PerTask > upper*1.001 {
		t.Errorf("steady-state period %.4gms outside [%.4g, %.4g]ms",
			r.PerTask*1e3, lower*1e3, upper*1e3)
	}
	// The bottleneck chunk must be (nearly) continuously busy.
	busiest := math.Max(r.ChunkBusy[0], r.ChunkBusy[1])
	if busiest < 0.95 {
		t.Errorf("bottleneck busy fraction %.3f, want ~1", busiest)
	}
}

func TestSimulateExtremeImbalanceRunsBottleneckIsolated(t *testing.T) {
	// When the other chunk is orders of magnitude faster, the bottleneck
	// executes essentially alone and the period converges to its
	// *isolated* service time — the regime where interference-heavy
	// profiling would overpredict, motivating the gapness filter.
	stages := make([]core.Stage, 2)
	kern := func(to *core.TaskObject, par core.ParallelFor) {}
	heavy := core.CostSpec{FLOPs: 5e7, Bytes: 1e6, ParallelFraction: 0.99,
		Divergence: 0.1, Irregularity: 0.1, WorkItems: 1 << 16}
	tiny := heavy
	tiny.FLOPs, tiny.Bytes = 1e3, 1e2
	stages[0] = core.Stage{Name: "heavy", CPU: kern, GPU: kern, Cost: heavy}
	stages[1] = core.Stage{Name: "tiny", CPU: kern, GPU: kern, Cost: tiny}
	app := &core.Application{Name: "imbalanced", Stages: stages,
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) }}
	dev := soc.NewJetson()
	dev.NoiseSigma = 0
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu"}})
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 40, Warmup: 10, Seed: 1})
	iso := dev.Estimate(heavy, core.ClassBig, nil)
	if rel := math.Abs(r.PerTask-iso) / iso; rel > 0.02 {
		t.Errorf("period %.4gms vs isolated bottleneck %.4gms (rel %.3f)",
			r.PerTask*1e3, iso*1e3, rel)
	}
}

func TestSimulateSingleChunk(t *testing.T) {
	app, _ := testApp(3, 1e6)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.NewUniformSchedule(3, core.ClassGPU))
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 10, Warmup: 2, Seed: 9})
	if len(r.Completions) != 10 {
		t.Fatalf("completions = %d", len(r.Completions))
	}
	if len(r.ChunkBusy) != 1 || r.ChunkBusy[0] < 0.9 {
		t.Errorf("single chunk should be ~fully busy: %v", r.ChunkBusy)
	}
}

func TestSimulateIsolatedChunkSlowerThanPredictedByIsolatedTable(t *testing.T) {
	// A two-chunk schedule on the Pixel: the big chunk runs while the
	// GPU chunk runs, so its realized service time exceeds its isolated
	// estimate (CPU throttles under load). This is the mechanism behind
	// the intro's 57% misprediction.
	app, _ := testApp(2, 2e7)
	dev := soc.NewPixel7a()
	dev.NoiseSigma = 0
	s := core.Schedule{Assign: []core.PUClass{"big", "gpu"}}
	p := mustPlan(t, app, dev, s)
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 30, Warmup: 5, Seed: 1})
	cost := app.Stages[0].Cost
	isoBig := dev.Estimate(cost, core.ClassBig, nil)
	isoGPU := dev.Estimate(cost, core.ClassGPU, nil)
	isoPrediction := math.Max(isoBig, isoGPU)
	if r.PerTask <= isoPrediction {
		t.Errorf("measured %.4g <= isolated prediction %.4g; interference lost",
			r.PerTask, isoPrediction)
	}
}

func TestExecuteRealEngine(t *testing.T) {
	app, runs := testApp(4, 1e3)
	dev := soc.NewPixel7a()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "little"}}
	p := mustPlan(t, app, dev, s)
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 12, Warmup: 3})
	if len(r.Completions) != 12 {
		t.Fatalf("completions = %d, want 12", len(r.Completions))
	}
	// 15 total tasks × 4 stages.
	if got := runs.Load(); got != 60 {
		t.Errorf("stage executions = %d, want 60", got)
	}
	for i := 1; i < len(r.Completions); i++ {
		if r.Completions[i] < r.Completions[i-1] {
			t.Fatal("completions out of order")
		}
	}
}

func TestExecuteSingleChunk(t *testing.T) {
	app, runs := testApp(2, 1e3)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.NewUniformSchedule(2, core.ClassBig))
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 5, Warmup: 0})
	if len(r.Completions) != 5 || runs.Load() != 10 {
		t.Fatalf("completions=%d runs=%d", len(r.Completions), runs.Load())
	}
}

func TestExecutePreservesTaskSequence(t *testing.T) {
	// Tasks must complete in stream order (SPSC FIFO end to end).
	var seqs []int
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	stages := []core.Stage{{
		Name: "only",
		CPU: func(to *core.TaskObject, par core.ParallelFor) {
			<-mu
			seqs = append(seqs, to.Seq)
			mu <- struct{}{}
		},
		GPU:  func(to *core.TaskObject, par core.ParallelFor) {},
		Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1},
	}}
	app := &core.Application{
		Name: "seq", Stages: stages,
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) },
	}
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.NewUniformSchedule(1, core.ClassBig))
	RealEngine{}.Run(context.Background(), p, Options{Tasks: 8, Warmup: 0, Buffers: 3})
	if len(seqs) != 8 {
		t.Fatalf("executed %d tasks", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("sequence order broken: %v", seqs)
		}
	}
}

func TestWorkerPoolParFor(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.Close()
	var covered [100]atomic.Int32
	pool.ParFor(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			covered[i].Add(1)
		}
	})
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
	// n < width works and n <= 0 is a no-op.
	pool.ParFor(2, func(lo, hi int) {})
	pool.ParFor(0, func(lo, hi int) { t.Error("ParFor(0) ran body") })
}

func TestWorkerPoolSingleWidthRunsInline(t *testing.T) {
	pool := newWorkerPool(1)
	defer pool.Close()
	ran := false
	pool.ParFor(10, func(lo, hi int) {
		if lo != 0 || hi != 10 {
			t.Errorf("band = [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Error("body not run")
	}
}

func TestOptionsDefaults(t *testing.T) {
	app, _ := testApp(4, 1e6)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}})
	o := Options{}.withDefaults(p)
	if o.Tasks != 30 || o.Buffers != 3 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestResultString(t *testing.T) {
	r := Result{PerTask: 0.001, Elapsed: 0.03, Completions: make([]float64, 30)}
	if s := r.String(); s == "" {
		t.Error("empty string")
	}
}

func TestSimulateTraceRecording(t *testing.T) {
	app, _ := testApp(4, 2e6)
	dev := soc.NewJetson()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}}
	p := mustPlan(t, app, dev, s)
	tl := &trace.Timeline{}
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 6, Warmup: 0, Seed: 1, Trace: tl})
	// Every (task, stage) pair appears exactly once: (6 tasks + fill) ×
	// 4 stages; buffers default to chunks+1=3 in-flight so total tasks
	// processed is exactly Tasks here (warmup 0).
	if want := 6 * 4; len(tl.Spans) != want {
		t.Fatalf("spans = %d, want %d", len(tl.Spans), want)
	}
	seen := map[[2]int]bool{}
	for _, sp := range tl.Spans {
		if sp.End <= sp.Start {
			t.Fatalf("empty span %+v", sp)
		}
		key := [2]int{sp.Task, sp.StageIndex}
		if seen[key] {
			t.Fatalf("duplicate span for task %d stage %d", sp.Task, sp.StageIndex)
		}
		seen[key] = true
		wantPU := s.Assign[sp.StageIndex]
		if sp.PU != wantPU {
			t.Fatalf("span stage %d on %s, schedule says %s", sp.StageIndex, sp.PU, wantPU)
		}
	}
	// Spans of one task must be ordered by stage.
	for task := 0; task < 6; task++ {
		last := -1.0
		for stage := 0; stage < 4; stage++ {
			for _, sp := range tl.Spans {
				if sp.Task == task && sp.StageIndex == stage {
					if sp.Start < last {
						t.Fatalf("task %d stage %d starts before previous stage ends", task, stage)
					}
					last = sp.End
				}
			}
		}
	}
	// Horizon must cover the run and render a Gantt.
	if tl.Horizon() <= 0 || len(tl.Gantt(60)) == 0 {
		t.Fatal("timeline unusable")
	}
	_ = r
}

func TestSimulateEnergyAccounting(t *testing.T) {
	app, _ := testApp(4, 5e6)
	dev := soc.NewJetson()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu"}}
	p := mustPlan(t, app, dev, s)
	r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 2})
	if r.EnergyJ <= 0 || r.EnergyPerTaskJ <= 0 {
		t.Fatalf("no energy accounted: %+v", r)
	}
	// Average power must sit between the idle floor and the TDP.
	floor := dev.UncoreWatts
	for _, c := range dev.Classes() {
		floor += dev.Power(c, 1, false)
	}
	if r.AvgWatts <= floor || r.AvgWatts >= dev.TDPWatts()*1.5 {
		t.Errorf("avg power %v W outside (%v, %v)", r.AvgWatts, floor, dev.TDPWatts()*1.5)
	}
	// Running everything on the big cluster (9 W busy) with the GPU
	// idling must draw less average power than saturating the GPU
	// (12 W busy) with the CPU idling.
	pBig := mustPlan(t, app, dev, core.NewUniformSchedule(4, core.ClassBig))
	rBig := SimEngine{}.Run(context.Background(), pBig, Options{Tasks: 20, Warmup: 5, Seed: 2})
	pGPU := mustPlan(t, app, dev, core.NewUniformSchedule(4, core.ClassGPU))
	rGPU := SimEngine{}.Run(context.Background(), pGPU, Options{Tasks: 20, Warmup: 5, Seed: 2})
	if rBig.AvgWatts >= rGPU.AvgWatts {
		t.Errorf("big-only avg %v W !< GPU-only %v W", rBig.AvgWatts, rGPU.AvgWatts)
	}
	// Energy and average power must agree on the makespan.
	if rGPU.AvgWatts <= 0 || rGPU.EnergyJ <= 0 {
		t.Error("GPU-only energy not accounted")
	}
}

func TestExecuteSurvivesKernelPanic(t *testing.T) {
	boom := func(to *core.TaskObject, par core.ParallelFor) {
		if to.Seq == 2 {
			panic("kernel exploded")
		}
	}
	ok := func(to *core.TaskObject, par core.ParallelFor) {}
	app := &core.Application{
		Name: "explosive",
		Stages: []core.Stage{
			{Name: "a", CPU: ok, GPU: ok, Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
			{Name: "b", CPU: boom, GPU: boom, Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
		},
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) },
	}
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu"}})
	done := make(chan Result, 1)
	go func() { done <- RealEngine{}.Run(context.Background(), p, Options{Tasks: 10, Warmup: 0}) }()
	select {
	case r := <-done:
		if r.Err == nil {
			t.Error("kernel panic not surfaced in Result.Err")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline deadlocked after kernel panic")
	}
}

func TestExecuteTraceRecording(t *testing.T) {
	app, _ := testApp(3, 1e3)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu"}})
	tl := &trace.Timeline{}
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 5, Warmup: 0, Trace: tl})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(tl.Spans) != 5*3 {
		t.Fatalf("spans = %d, want 15", len(tl.Spans))
	}
	for _, sp := range tl.Spans {
		if sp.End < sp.Start {
			t.Fatalf("negative span %+v", sp)
		}
	}
	if tl.Gantt(40) == "" {
		t.Error("gantt empty")
	}
}

// TestSimulatePeriodEnvelopeFuzz checks the core physical invariant over
// random applications and schedules: with noise disabled, each chunk's
// realized rate is always between its isolated and fully-interfered
// rates, so the steady-state period must fall inside the corresponding
// bottleneck envelope.
func TestSimulatePeriodEnvelopeFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	devices := []*soc.Device{soc.NewPixel7a(), soc.NewOnePlus11(), soc.NewJetson(), soc.NewJetsonLP()}
	for trial := 0; trial < 60; trial++ {
		dev := devices[rng.Intn(len(devices))]
		dev.NoiseSigma = 0
		classes := dev.Classes()
		nStages := 2 + rng.Intn(6)
		stages := make([]core.Stage, nStages)
		kern := func(to *core.TaskObject, par core.ParallelFor) {}
		for i := range stages {
			stages[i] = core.Stage{
				Name: fmt.Sprintf("s%d", i), CPU: kern, GPU: kern,
				Cost: core.CostSpec{
					FLOPs: 1e5 + rng.Float64()*5e7, Bytes: rng.Float64() * 5e6,
					ParallelFraction: 0.9 + rng.Float64()*0.0999,
					Divergence:       rng.Float64() * 0.9, Irregularity: rng.Float64() * 0.9,
					WorkItems: 1e3 + rng.Float64()*1e5,
				},
			}
		}
		app := &core.Application{Name: "fuzz", Stages: stages,
			NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) }}

		// Random contiguous schedule.
		var assign []core.PUClass
		perm := rng.Perm(len(classes))
		pos := 0
		for pos < nStages {
			if len(perm) == 0 {
				break
			}
			cls := classes[perm[0]]
			perm = perm[1:]
			run := 1 + rng.Intn(nStages-pos)
			if len(perm) == 0 {
				run = nStages - pos
			}
			for k := 0; k < run; k++ {
				assign = append(assign, cls)
			}
			pos += run
		}
		sch := core.Schedule{Assign: assign}
		p, err := NewPlan(app, dev, sch)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := SimEngine{}.Run(context.Background(), p, Options{Tasks: 25, Warmup: 8, Seed: int64(trial)})

		lower, upper := 0.0, 0.0
		for _, ch := range sch.Chunks() {
			iso, heavy := 0.0, 0.0
			for si := ch.Start; si < ch.End; si++ {
				cost := stages[si].Cost
				iso += dev.Estimate(cost, ch.PU, nil)
				heavy += dev.Estimate(cost, ch.PU, dev.HeavyEnv(cost, ch.PU))
			}
			lower = math.Max(lower, math.Min(iso, heavy))
			upper = math.Max(upper, math.Max(iso, heavy))
		}
		if r.PerTask < lower*0.99 || r.PerTask > upper*1.01 {
			t.Fatalf("trial %d on %s (%s): period %.4g outside [%.4g, %.4g]",
				trial, dev.Name, sch, r.PerTask, lower, upper)
		}
	}
}
