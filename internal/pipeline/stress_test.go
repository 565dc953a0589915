// Stress suite for the Real engine, run under `go test -race`: concurrent
// runs of all four evaluation apps with randomized contiguous chunkings,
// cancellation mid-flight, and induced stage panics. Lives in an external
// test package so it can drive the engine through the public API with the
// real btapps kernels (the internal package cannot import them without a
// cycle).
package pipeline_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// stressApps builds fresh small-sized instances of the four evaluation
// workloads. Fresh instances matter: panic-injection tests mutate stages,
// and TaskObjects must not be shared across concurrent runs.
func stressApps(t *testing.T) []*bt.Application {
	t.Helper()
	return append(cheapApps(t), btapps.AlexNetDense()) // dense is heaviest — used sparingly
}

// cheapApps builds the three fast workloads for tests that need many
// rounds.
func cheapApps(t *testing.T) []*bt.Application {
	t.Helper()
	return []*bt.Application{cheapApp(t, 0), cheapApp(t, 1), cheapApp(t, 2)}
}

// cheapApp builds one fast workload by index — a fresh instance each
// call, so callers may mutate stages or run concurrently.
func cheapApp(t *testing.T, i int) *bt.Application {
	t.Helper()
	switch i % 3 {
	case 0:
		return btapps.AlexNetSparseBatch(1)
	case 1:
		app, err := btapps.OctreeSized(2048, "uniform")
		if err != nil {
			t.Fatal(err)
		}
		return app
	default:
		app, err := btapps.VisionSized(64, 48)
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
}

// randomChunking generates a random contiguous stage→PU assignment.
func randomChunking(rng *rand.Rand, nStages int, classes []bt.PUClass) bt.Schedule {
	var assign []bt.PUClass
	perm := rng.Perm(len(classes))
	pos := 0
	for pos < nStages {
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
	return bt.Schedule{Assign: assign}
}

// settleGoroutines waits for the goroutine count to return to the
// pre-run level, failing the test if it does not.
func settleGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s leaked goroutines: %d before, %d after",
				what, before, runtime.NumGoroutine())
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStressConcurrentRandomChunkings runs all four apps concurrently,
// each under several randomized chunkings, and checks every run
// completes the full task count with no error. Under -race this
// exercises dispatcher/queue/pool interleavings across simultaneous
// pipelines sharing the host.
func TestStressConcurrentRandomChunkings(t *testing.T) {
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	classes := dev.Classes()
	before := runtime.NumGoroutine()

	type job struct {
		app  *bt.Application
		sch  bt.Schedule
		seed int64
	}
	var jobs []job
	rng := rand.New(rand.NewSource(7))
	for ai, app := range stressApps(t) {
		runs := 3
		if app.Name == "alexnet-dense" {
			runs = 1 // ~200ms/task; one schedule keeps -race time sane
		}
		for k := 0; k < runs; k++ {
			jobs = append(jobs, job{app, randomChunking(rng, len(app.Stages), classes), int64(ai*10 + k)})
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := bt.NewPlan(j.app, dev, j.sch)
			if err != nil {
				errs <- err
				return
			}
			m := bt.NewMetrics(plan)
			tasks := 4
			r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: tasks, Warmup: 1, Metrics: m})
			if r.Err != nil {
				errs <- r.Err
				return
			}
			if len(r.Completions) != tasks {
				errs <- fmt.Errorf("%s %s: %d completions, want %d",
					j.app.Name, j.sch, len(r.Completions), tasks)
				return
			}
			// Metrics sanity under concurrency: every stage dispatched
			// warmup+tasks times.
			for i := 0; i < m.NumStages(); i++ {
				if got := m.Stage(i).Dispatches(); got != uint64(tasks+1) {
					errs <- fmt.Errorf("%s stage %d: %d dispatches, want %d",
						j.app.Name, i, got, tasks+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settleGoroutines(t, before, "concurrent stress runs")
}

// TestStressCancellationMidFlight cancels real runs at randomized points
// and checks each run either finished cleanly (cancel landed too late)
// or reports context.Canceled — never hangs, never leaks.
func TestStressCancellationMidFlight(t *testing.T) {
	dev, err := bt.DeviceByName("jetson")
	if err != nil {
		t.Fatal(err)
	}
	classes := dev.Classes()
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(11))

	apps := cheapApps(t) // cancellation timing needs many rounds
	for round := 0; round < 6; round++ {
		app := apps[round%len(apps)]
		sch := randomChunking(rng, len(app.Stages), classes)
		plan, err := bt.NewPlan(app, dev, sch)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		delay := time.Duration(rng.Intn(8)) * time.Millisecond
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		done := make(chan bt.RunResult, 1)
		go func() { done <- bt.RealEngine{}.Run(ctx, plan, bt.RunOptions{Tasks: 200, Warmup: 0}) }()
		select {
		case r := <-done:
			if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("round %d (%s): unexpected error %v", round, app.Name, r.Err)
			}
			if r.Err == nil && len(r.Completions) != 200 {
				t.Fatalf("round %d: clean finish with %d completions", round, len(r.Completions))
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("round %d (%s): canceled run hung", round, app.Name)
		}
		cancel()
	}
	settleGoroutines(t, before, "cancellation rounds")
}

// TestStressInjectedPanics wraps a random stage of each app with a kernel
// that panics at a random task, on a random lane, and checks the engine
// surfaces an attributed *bt.PanicError instead of deadlocking or
// crashing — concurrently across apps.
func TestStressInjectedPanics(t *testing.T) {
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	classes := dev.Classes()
	before := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(23))

	type result struct {
		app   string
		stage string
		err   error
	}
	var wg sync.WaitGroup
	results := make(chan result, 16)
	for round := 0; round < 8; round++ {
		app := cheapApp(t, round) // fresh instance: stages are mutated below
		si := rng.Intn(len(app.Stages))
		atSeq := rng.Intn(4)
		inBand := rng.Intn(2) == 0
		name := app.Stages[si].Name
		orig := app.Stages[si].CPU
		origGPU := app.Stages[si].GPU
		boom := func(orig bt.KernelFunc) bt.KernelFunc {
			return func(task *bt.TaskObject, par bt.ParallelFor) {
				if task.Seq == atSeq {
					if inBand {
						par(32, func(lo, hi int) {
							if lo == 0 {
								panic("injected band panic")
							}
						})
					}
					panic("injected dispatcher panic")
				}
				orig(task, par)
			}
		}
		app.Stages[si].CPU = boom(orig)
		app.Stages[si].GPU = boom(origGPU)
		sch := randomChunking(rng, len(app.Stages), classes)
		plan, err := bt.NewPlan(app, dev, sch)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 8, Warmup: 0})
			results <- result{app.Name, name, r.Err}
		}()
	}
	wg.Wait()
	close(results)
	for res := range results {
		var perr *bt.PanicError
		if !errors.As(res.err, &perr) {
			t.Errorf("%s: err = %v, want *bt.PanicError", res.app, res.err)
			continue
		}
		if perr.Stage != res.stage {
			t.Errorf("%s: panic attributed to stage %q, injected into %q",
				res.app, perr.Stage, res.stage)
		}
	}
	settleGoroutines(t, before, "panic-injection rounds")
}
