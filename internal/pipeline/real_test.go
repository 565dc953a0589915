package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// countGoroutines samples the goroutine count after a settle period, for
// leak assertions.
func waitGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s leaked goroutines: %d before, %d after", what, before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestExecuteContextCancelMidFlight(t *testing.T) {
	// Kernels slow enough that cancellation lands mid-run.
	slow := func(to *core.TaskObject, par core.ParallelFor) {
		time.Sleep(2 * time.Millisecond)
	}
	stages := make([]core.Stage, 3)
	for i := range stages {
		stages[i] = core.Stage{
			Name: string(rune('a' + i)), CPU: slow, GPU: slow,
			Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1},
		}
	}
	app := &core.Application{Name: "slow", Stages: stages,
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) }}
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu"}})

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	r := RealEngine{}.Run(ctx, p, Options{Tasks: 10000, Warmup: 0})
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", r.Err)
	}
	// The run must terminate promptly (drain the in-flight buffers, not
	// the remaining thousands of tasks).
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if len(r.Completions) >= 10000 {
		t.Fatal("run completed despite cancellation")
	}
	waitGoroutines(t, before, "canceled run")
}

func TestExecuteContextPreCanceled(t *testing.T) {
	app, _ := testApp(2, 1e3)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.NewUniformSchedule(2, core.ClassBig))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	r := RealEngine{}.Run(ctx, p, Options{Tasks: 50, Warmup: 0})
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", r.Err)
	}
	waitGoroutines(t, before, "pre-canceled run")
}

func TestExecuteShutdownTimeout(t *testing.T) {
	// A kernel that never returns must not hang RealEngine.Run: the join
	// deadline expires and the stalled dispatcher is reported. The gate
	// is released at test end so the goroutine actually exits.
	gate := make(chan struct{})
	stuck := func(to *core.TaskObject, par core.ParallelFor) { <-gate }
	app := &core.Application{
		Name: "stuck",
		Stages: []core.Stage{{Name: "block", CPU: stuck, GPU: stuck,
			Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}}},
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) },
	}
	defer close(gate)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.NewUniformSchedule(1, core.ClassBig))
	t0 := time.Now()
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 3, Warmup: 0, shutdownTimeout: 50 * time.Millisecond})
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("bounded join took %v", elapsed)
	}
	var ste *ShutdownTimeoutError
	if !errors.As(r.Err, &ste) {
		t.Fatalf("Err = %v, want *ShutdownTimeoutError", r.Err)
	}
	if ste.Stalled < 1 {
		t.Fatalf("Stalled = %d, want >= 1", ste.Stalled)
	}
}

func TestExecutePanicAttributionFromWorkerBand(t *testing.T) {
	// A panic on a pool worker lane (not the dispatcher) must surface as
	// a *PanicError attributed to the right chunk/stage/task, with the
	// worker's stack.
	boom := func(to *core.TaskObject, par core.ParallelFor) {
		if to.Seq == 3 {
			par(64, func(lo, hi int) {
				if lo == 0 {
					panic("lane exploded")
				}
			})
		}
	}
	ok := func(to *core.TaskObject, par core.ParallelFor) { par(64, func(lo, hi int) {}) }
	app := &core.Application{
		Name: "boom",
		Stages: []core.Stage{
			{Name: "fine", CPU: ok, GPU: ok,
				Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
			{Name: "explosive", CPU: boom, GPU: boom,
				Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
		},
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) },
	}
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu"}})
	before := runtime.NumGoroutine()
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 10, Warmup: 0})
	var perr *PanicError
	if !errors.As(r.Err, &perr) {
		t.Fatalf("Err = %v, want *PanicError", r.Err)
	}
	if perr.Stage != "explosive" || perr.Chunk != 1 || perr.Task != 3 {
		t.Fatalf("attribution wrong: %+v", perr)
	}
	if perr.Value != "lane exploded" {
		t.Fatalf("Value = %v", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	waitGoroutines(t, before, "panicked run")
}

func TestWorkerPoolBandPanicCompletesBarrier(t *testing.T) {
	pool := newWorkerPool(4)
	defer pool.Close()
	caught := func() (v any) {
		defer func() { v = recover() }()
		pool.ParFor(100, func(lo, hi int) {
			if lo == 0 {
				panic("first band")
			}
		})
		return nil
	}()
	wp, ok := caught.(workerPanic)
	if !ok {
		t.Fatalf("recovered %T, want workerPanic", caught)
	}
	if wp.value != "first band" || len(wp.stack) == 0 {
		t.Fatalf("workerPanic = %+v", wp)
	}
	// The pool must still work after a band panic (workers survived).
	total := 0
	pool.ParFor(10, func(lo, hi int) {
		if lo == 0 {
			total = 10
		}
	})
	_ = total
}

func TestExecuteRecordsMetrics(t *testing.T) {
	app, _ := testApp(4, 1e3)
	dev := soc.NewPixel7a()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "little"}}
	p := mustPlan(t, app, dev, s)
	m := NewMetrics(p)
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 12, Warmup: 3, Metrics: m})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if m.NumStages() != 4 || m.NumQueues() != 3 || m.NumPools() != 3 {
		t.Fatalf("collector shape %d/%d/%d", m.NumStages(), m.NumQueues(), m.NumPools())
	}
	for i := 0; i < 4; i++ {
		st := m.Stage(i)
		if st.Dispatches() != 15 {
			t.Errorf("stage %d dispatches = %d, want 15", i, st.Dispatches())
		}
		if st.Service().Count() != 15 {
			t.Errorf("stage %d service count = %d", i, st.Service().Count())
		}
		if st.Name == "" || st.PU == "" {
			t.Errorf("stage %d unlabeled: %+v", i, st)
		}
	}
	// Every edge moved every task at least once.
	for e := 0; e < 3; e++ {
		if m.Queue(e).Pops() == 0 {
			t.Errorf("edge %d recorded no pops", e)
		}
		if m.Queue(e).Cap <= 0 {
			t.Errorf("edge %d capacity not filled", e)
		}
	}
	if m.Elapsed() <= 0 {
		t.Error("elapsed not recorded")
	}
	if m.Table() == "" {
		t.Error("empty table")
	}
}

func TestSimulateRecordsMetricsWithoutPerturbing(t *testing.T) {
	app, _ := testApp(5, 3e6)
	dev := soc.NewPixel7a()
	s := core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu", "little"}}
	p := mustPlan(t, app, dev, s)

	bare := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 7})
	m := NewMetrics(p)
	instrumented := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 7, Metrics: m})

	// Bit-identical: attaching a collector must not perturb the DES.
	if bare.PerTask != instrumented.PerTask || bare.Elapsed != instrumented.Elapsed ||
		bare.EnergyJ != instrumented.EnergyJ {
		t.Fatalf("metrics perturbed the simulation: %v vs %v", bare, instrumented)
	}
	if len(bare.Completions) != len(instrumented.Completions) {
		t.Fatal("completion count changed")
	}
	for i := range bare.Completions {
		if bare.Completions[i] != instrumented.Completions[i] {
			t.Fatalf("completion %d differs", i)
		}
	}

	// And the collector must have real content in virtual time.
	total := uint64(0)
	for i := 0; i < m.NumStages(); i++ {
		total += m.Stage(i).Dispatches()
		if m.Stage(i).Service().Mean() <= 0 {
			t.Errorf("stage %d has no service time", i)
		}
	}
	if total != 25*5 {
		t.Fatalf("total dispatches = %d, want %d", total, 25*5)
	}
	if m.Elapsed() <= 0 {
		t.Error("virtual elapsed not recorded")
	}
	for i := 0; i < m.NumPools(); i++ {
		if m.Pool(i).BusyTime() <= 0 {
			t.Errorf("pool %d has no busy time", i)
		}
	}
}

func TestExecuteMetricsBackpressureVisible(t *testing.T) {
	// Chunk 1 is much slower than chunk 0, so the edge between them must
	// show occupancy (tasks piling up) — the slow stage is visible.
	fast := func(to *core.TaskObject, par core.ParallelFor) {}
	slow := func(to *core.TaskObject, par core.ParallelFor) { time.Sleep(time.Millisecond) }
	app := &core.Application{
		Name: "skewed",
		Stages: []core.Stage{
			{Name: "fast", CPU: fast, GPU: fast,
				Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
			{Name: "slow", CPU: slow, GPU: slow,
				Cost: core.CostSpec{FLOPs: 1, ParallelFraction: 0.5, WorkItems: 1}},
		},
		NewTask: func() *core.TaskObject { return core.NewTaskObject(nil, nil) },
	}
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu"}})
	m := NewMetrics(p)
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 0, Buffers: 6, Metrics: m})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	// Edge 0 feeds the slow chunk: it must have been observed non-empty.
	if m.Queue(0).MaxDepth() == 0 {
		t.Error("backpressure invisible: edge into slow chunk never observed occupied")
	}
	// The slow stage's service time must dwarf the fast one's.
	if m.Stage(1).Service().Mean() < 10*m.Stage(0).Service().Mean() {
		t.Errorf("service skew not captured: fast %v, slow %v",
			m.Stage(0).Service().Mean(), m.Stage(1).Service().Mean())
	}
}

func TestExecuteJoinsAllGoroutines(t *testing.T) {
	// A clean run must leave zero goroutines behind (dispatchers, pool
	// workers, watcher).
	app, _ := testApp(3, 1e3)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu", "little"}})
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 8, Warmup: 2})
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	waitGoroutines(t, before, "clean runs")
}

func TestPanicErrorMessage(t *testing.T) {
	e := &PanicError{Chunk: 2, PU: core.ClassGPU, Stage: "conv1", Task: 7, Value: "boom"}
	msg := e.Error()
	for _, want := range []string{"chunk 2", "gpu", "conv1", "task 7", "boom"} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	bare := &PanicError{Chunk: 0, PU: core.ClassBig, Value: 42}
	if strings.Contains(bare.Error(), "stage") {
		t.Errorf("stageless message mentions stage: %q", bare.Error())
	}
	ste := &ShutdownTimeoutError{Timeout: time.Second, Stalled: 2}
	if !strings.Contains(ste.Error(), "2 dispatcher") {
		t.Errorf("shutdown message: %q", ste.Error())
	}
}
