package pipeline

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/queue"
	"bettertogether/internal/soc"
)

// eventsByKind buckets a stream's retained events.
func eventsByKind(s *obs.Stream) map[obs.Kind][]obs.Event {
	out := map[obs.Kind][]obs.Event{}
	for _, e := range s.Recent(0) {
		out[e.Kind] = append(out[e.Kind], e)
	}
	return out
}

// TestSimulateEventsDoNotPerturb pins the acceptance criterion that
// attaching the event stream changes no sim result bytes: the DES reads
// the clock for emission but never touches the RNG, so the Result must
// be bit-identical with and without a sink.
func TestSimulateEventsDoNotPerturb(t *testing.T) {
	app, _ := testApp(5, 3e6)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "gpu", "little"}})

	bare := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 7})
	stream := obs.NewStream(4096)
	evented := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 5, Seed: 7, Events: stream})

	// Golden pin: render both results and compare bytes.
	if a, b := fmt.Sprintf("%+v", bare), fmt.Sprintf("%+v", evented); a != b {
		t.Fatalf("event stream perturbed the simulation:\nbare:    %s\nevented: %s", a, b)
	}

	by := eventsByKind(stream)
	if n := len(by[obs.KindStageDone]); n != 25*5 {
		t.Fatalf("stage-done events = %d, want %d", n, 25*5)
	}
	if len(by[obs.KindRunStart]) != 1 || len(by[obs.KindRunEnd]) != 1 {
		t.Fatalf("run lifecycle events %d/%d, want 1/1",
			len(by[obs.KindRunStart]), len(by[obs.KindRunEnd]))
	}
	for _, e := range by[obs.KindStageDone] {
		if e.Stage == "" || e.Chunk < 0 || e.Task < 0 || e.Dur <= 0 {
			t.Fatalf("malformed sim stage-done event %+v", e)
		}
	}
}

// TestExecuteEmitsLifecycleEvents checks the real engine's emission:
// run-start first, run-end last, one stage-done per dispatch.
func TestExecuteEmitsLifecycleEvents(t *testing.T) {
	app, _ := testApp(3, 1e3)
	dev := soc.NewJetson()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu"}})
	stream := obs.NewStream(1024)
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 8, Warmup: 2, Events: stream})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	all := stream.Recent(0)
	if len(all) == 0 {
		t.Fatal("no events emitted")
	}
	if all[0].Kind != obs.KindRunStart {
		t.Fatalf("first event %v, want run-start", all[0].Kind)
	}
	if last := all[len(all)-1]; last.Kind != obs.KindRunEnd {
		t.Fatalf("last event %v, want run-end", last.Kind)
	} else {
		if last.Task != len(r.Completions) {
			t.Fatalf("run-end completions %d, want %d", last.Task, len(r.Completions))
		}
		if last.Dur <= 0 {
			t.Fatalf("run-end duration %v", last.Dur)
		}
	}
	by := eventsByKind(stream)
	if n := len(by[obs.KindStageDone]); n != 10*3 {
		t.Fatalf("stage-done events = %d, want %d", n, 10*3)
	}
	for _, e := range by[obs.KindStageDone] {
		if e.Stage == "" || e.Chunk < 0 || e.Task < 0 || e.Dur <= 0 {
			t.Fatalf("malformed stage-done event %+v", e)
		}
	}
}

// TestPushTimedEmitsQueueStall exercises the dispatcher's push helper
// against a genuinely full queue. In-flight tasks never exceed edge
// capacity in a healthy run (the ring allocates buffers+1 slots for
// buffers objects), so the blocked path is the engine's safety net —
// drive it directly: fill the queue, push with a delayed consumer, and
// require a queue-stall event naming the edge with a real duration.
func TestPushTimedEmitsQueueStall(t *testing.T) {
	q := queue.NewSPSC[*core.TaskObject](1)
	task := core.NewTaskObject(nil, nil)
	task.Reset(7)
	for i := 0; i < q.Cap(); i++ { // capacity rounds up: fill it completely
		if !q.TryPush(core.NewTaskObject(nil, nil)) {
			t.Fatal("priming push failed")
		}
	}
	stream := obs.NewStream(16)
	popped := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		q.Pop()
		close(popped)
	}()
	pushTimed(q, task, nil, stream, 3)
	<-popped
	stalls := eventsByKind(stream)[obs.KindQueueStall]
	if len(stalls) != 1 {
		t.Fatalf("queue-stall events = %d, want 1", len(stalls))
	}
	e := stalls[0]
	if e.Chunk != 3 || e.Task != 7 {
		t.Fatalf("stall misattributed: %+v", e)
	}
	if e.Dur < time.Millisecond {
		t.Fatalf("stall duration %v, want >= the consumer delay", e.Dur)
	}

	// The unblocked path must stay silent.
	q.Pop() // make room so the next push takes the fast path
	pushTimed(q, core.NewTaskObject(nil, nil), nil, stream, 3)
	if n := len(eventsByKind(stream)[obs.KindQueueStall]); n != 1 {
		t.Fatalf("fast-path push emitted a stall (total %d)", n)
	}
}

// TestExecuteEmitsPanicRecovered checks that a kernel panic surfaces as
// a panic-recovered event with stage attribution, alongside Result.Err.
func TestExecuteEmitsPanicRecovered(t *testing.T) {
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
	stream := obs.NewStream(256)
	done := make(chan Result, 1)
	go func() {
		done <- RealEngine{}.Run(context.Background(), p, Options{Tasks: 10, Warmup: 0, Events: stream})
	}()
	select {
	case r := <-done:
		if r.Err == nil {
			t.Fatal("panic not surfaced in Result.Err")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline deadlocked after kernel panic")
	}
	recovered := eventsByKind(stream)[obs.KindPanicRecovered]
	if len(recovered) == 0 {
		t.Fatal("no panic-recovered event")
	}
	e := recovered[0]
	if e.Stage != "b" || e.Task != 2 || e.Detail == "" {
		t.Fatalf("panic event misattributed: %+v", e)
	}
}

// TestExecuteEventsUnderConcurrency runs several evented executions in
// parallel against one shared stream — the shape the multi-app runtime
// produces — and checks nothing races or is lost from the totals.
func TestExecuteEventsUnderConcurrency(t *testing.T) {
	stream := obs.NewStream(obs.DefaultStreamCapacity)
	var wg sync.WaitGroup
	const runs = 4
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app, _ := testApp(3, 1e3)
			dev := soc.NewPixel7a()
			p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu", "little"}})
			sink := obs.WithSession(stream, fmt.Sprintf("run#%d", i))
			r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 6, Warmup: 0, Events: sink})
			if r.Err != nil {
				t.Errorf("run %d: %v", i, r.Err)
			}
		}(i)
	}
	wg.Wait()
	// Each run: 1 run-start + 18 stage-done + 1 run-end, plus any
	// stalls. The ring is far larger than that, so it must hold every
	// emission the total counts, and the fixed kinds must be exact.
	total := stream.Total()
	if held := len(stream.Recent(0)); uint64(held) != total {
		t.Fatalf("ring holds %d events, stream total %d", held, total)
	}
	byKind := eventsByKind(stream)
	if n := len(byKind[obs.KindStageDone]); n != runs*18 {
		t.Fatalf("stage-done %d, want %d", n, runs*18)
	}
	if s, e := len(byKind[obs.KindRunStart]), len(byKind[obs.KindRunEnd]); s != runs || e != runs {
		t.Fatalf("run brackets %d/%d, want %d/%d", s, e, runs, runs)
	}
	if want := uint64(runs*20 + len(byKind[obs.KindQueueStall])); total != want {
		t.Fatalf("stream total %d, want %d", total, want)
	}
	for _, e := range stream.Recent(0) {
		if e.Session == "" {
			t.Fatalf("untagged event escaped WithSession: %+v", e)
		}
	}
}

// The two benchmarks below document the perturbation budget: an
// attached event stream must stay within noise of a bare run (the
// acceptance bar is <5% wall-clock). Compare with
//
//	go test ./internal/pipeline/ -bench 'BenchmarkExecute(Bare|Evented)'
func benchPlan(b *testing.B) *Plan {
	b.Helper()
	app, _ := testApp(4, 1e4)
	p, err := NewPlan(app, soc.NewPixel7a(), core.Schedule{Assign: []core.PUClass{"big", "big", "gpu", "little"}})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkExecuteBare(b *testing.B) {
	p := benchPlan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealEngine{}.Run(context.Background(), p, Options{Tasks: 50, Warmup: 0})
	}
}

func BenchmarkExecuteEvented(b *testing.B) {
	p := benchPlan(b)
	s := obs.NewStream(obs.DefaultStreamCapacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RealEngine{}.Run(context.Background(), p, Options{Tasks: 50, Warmup: 0, Events: s})
	}
}
