package pipeline

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/queue"
	"bettertogether/internal/trace"
)

// defaultShutdownTimeout bounds how long the Real engine waits for
// dispatcher goroutines to join after the run completes or is canceled.
const defaultShutdownTimeout = 30 * time.Second

// realRun is the Real engine's executor: the dispatcher/queue machinery
// over an already validated plan and resolved options. The lifecycle
// contract is documented on RealEngine.
func realRun(ctx context.Context, p *Plan, opts Options) runOutcome {
	total := opts.Warmup + opts.Tasks
	m := opts.Metrics
	ev := opts.Events
	nChunks := len(p.Chunks)

	// One worker pool per PU class used, sized like the cluster (or the
	// resolved Options.GPUPoolWidth for the GPU class).
	order := poolOrder(p)
	pools := make(map[core.PUClass]*workerPool, len(order))
	for i, class := range order {
		pool := newWorkerPool(opts.poolWidth(p, class))
		if m != nil {
			pool.stats = m.Pool(i)
		}
		pools[class] = pool
	}

	// The closed cycle of SPSC edges the dispatchers communicate over,
	// including the recycling edge from the last chunk back to the first;
	// each edge holds the buffering depth plus one.
	ring := queue.NewRing[*core.TaskObject](nChunks, opts.Buffers+1)

	// Multi-buffering: pre-allocate the in-flight TaskObjects and prime
	// the first queue.
	nbuf := opts.Buffers
	if nbuf > total {
		nbuf = total
	}
	objs := make([]*core.TaskObject, nbuf)
	for i := range objs {
		objs[i] = p.App.NewTask()
		objs[i].Reset(i)
	}
	ring.Prime(objs)

	var (
		mu          sync.Mutex
		completions []float64
		start       = time.Now()
		measureFrom time.Time
		issued      = nbuf
		runErr      error
		spans       = make([][]trace.Span, nChunks)
	)
	if opts.Warmup == 0 {
		measureFrom = start
	}
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		ring.Close()
	}

	// Cancellation watcher: closing the ring releases every dispatcher
	// blocked on a queue; dispatchers mid-kernel finish the current task
	// and then observe the closed ring.
	stopWatch := make(chan struct{})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-stopWatch:
			}
		}()
	}

	var wg sync.WaitGroup
	var exited atomic.Int64
	for ci := range p.Chunks {
		ci := ci
		chunk := p.Chunks[ci]
		backend := p.Backend(ci)
		pool := pools[chunk.PU]
		last := ci == nChunks-1
		inEdge := ((ci-1)%nChunks + nChunks) % nChunks
		outEdge := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer exited.Add(1)
			curStage := -1
			curTask := -1
			// A panicking kernel must not deadlock the ring: shut the
			// pipeline down and surface a typed, attributed error in
			// Result.Err. Pool workers re-raise their panics here as
			// workerPanic, carrying the original value and stack.
			defer func() {
				if r := recover(); r != nil {
					perr := &PanicError{Chunk: ci, PU: chunk.PU, Task: curTask}
					if curStage >= 0 {
						perr.Stage = p.App.Stages[curStage].Name
					}
					if wp, ok := r.(workerPanic); ok {
						perr.Value, perr.Stack = wp.value, wp.stack
					} else {
						perr.Value, perr.Stack = r, debug.Stack()
					}
					fail(perr)
					if ev != nil {
						e := obs.NewEvent(obs.KindPanicRecovered)
						e.Chunk, e.Task, e.Stage = ci, curTask, perr.Stage
						e.Detail = fmt.Sprint(perr.Value)
						ev.Emit(e)
					}
				}
			}()
			in, out := ring.In(ci), ring.Out(ci)
			for {
				// Step 1: pop the next TaskObject, timing starvation.
				var popStart time.Time
				if m != nil {
					popStart = time.Now()
				}
				task, ok := in.Pop()
				if !ok {
					return
				}
				if m != nil {
					m.QueueWait(inEdge, time.Since(popStart))
					m.QueueDepth(inEdge, in.Len())
				}
				curTask = task.Seq
				// Sec. 3.4's buffer-sync step has no code: memory is
				// unified, and the queue hand-off orders the writes.
				// Step 2: dispatch the chunk's kernels in order; ParFor's
				// barrier is step 3's yield-until-complete.
				for s := chunk.Start; s < chunk.End; s++ {
					curStage = s
					t0 := time.Now()
					p.App.Stages[s].Kernel(backend)(task, pool.ParFor)
					service := time.Since(t0)
					if m != nil {
						m.StageDone(s, service)
					}
					if ev != nil {
						e := obs.NewEvent(obs.KindStageDone)
						e.Chunk, e.Task = ci, task.Seq
						e.Stage = p.App.Stages[s].Name
						e.PU = string(chunk.PU)
						e.Dur = service
						ev.Emit(e)
					}
					if opts.Trace != nil {
						spans[ci] = append(spans[ci], trace.Span{
							Chunk: ci, PU: chunk.PU,
							Stage: p.App.Stages[s].Name, StageIndex: s,
							Task:  task.Seq,
							Start: t0.Sub(start).Seconds(),
							End:   time.Since(start).Seconds(),
						})
					}
				}
				curStage = -1
				if last {
					seq := task.Seq
					now := time.Now()
					mu.Lock()
					if seq == opts.Warmup-1 {
						measureFrom = now
					}
					if seq >= opts.Warmup {
						completions = append(completions, now.Sub(start).Seconds())
					}
					done := seq == total-1
					var next int
					reissue := issued < total
					if reissue {
						next = issued
						issued++
					}
					mu.Unlock()
					if done {
						ring.Close()
						return
					}
					if reissue {
						// Step 4 + recycling: reset for the next stream
						// input and push back to the first queue.
						task.Reset(next)
						pushTimed(out, task, m, ev, outEdge)
					}
				} else {
					// Step 4: hand the task to the next chunk.
					pushTimed(out, task, m, ev, outEdge)
				}
			}
		}()
	}

	// Join every dispatcher with a bounded deadline so a stuck kernel
	// cannot hang the caller forever.
	joined := make(chan struct{})
	go func() {
		wg.Wait()
		close(joined)
	}()
	deadline := opts.shutdownTimeout
	if deadline <= 0 {
		deadline = defaultShutdownTimeout
	}
	clean := true
	select {
	case <-joined:
	case <-time.After(deadline):
		clean = false
		ring.Close() // release anything still blocked on a queue
		// Give released dispatchers one more grace window to exit.
		select {
		case <-joined:
			clean = true
		case <-time.After(100 * time.Millisecond):
		}
	}
	close(stopWatch)

	mu.Lock()
	if !clean && runErr == nil {
		runErr = &ShutdownTimeoutError{
			Timeout: deadline,
			Stalled: nChunks - int(exited.Load()),
		}
	}
	err := runErr
	comps := append([]float64(nil), completions...)
	from := measureFrom
	mu.Unlock()

	if clean {
		// Dispatchers are gone; pool workers are idle. Stop them. With a
		// stalled dispatcher we must skip this: Close would block behind
		// its in-flight work.
		for _, pool := range pools {
			pool.Close()
		}
		if opts.Trace != nil {
			for _, ss := range spans {
				for _, sp := range ss {
					opts.Trace.Add(sp)
				}
			}
		}
	}
	if m != nil {
		m.SetElapsed(time.Since(start))
	}

	startSec := 0.0
	if !from.IsZero() {
		startSec = from.Sub(start).Seconds()
	}
	return runOutcome{completions: comps, measureStart: startSec, err: err}
}

// pushTimed pushes a task onto an edge, recording producer-side
// backpressure when metrics are attached and emitting a QueueStall event
// when the push actually blocked. The fast path (room available) records
// a zero stall without reading the clock twice and emits nothing.
func pushTimed(out *queue.SPSC[*core.TaskObject], task *core.TaskObject, m *metrics.Pipeline, ev obs.Sink, edge int) {
	if m == nil && ev == nil {
		out.Push(task)
		return
	}
	if out.TryPush(task) {
		if m != nil {
			m.QueueStall(edge, 0)
			m.QueueDepth(edge, out.Len())
		}
		return
	}
	t0 := time.Now()
	out.Push(task)
	stall := time.Since(t0)
	if m != nil {
		m.QueueStall(edge, stall)
		m.QueueDepth(edge, out.Len())
	}
	if ev != nil {
		e := obs.NewEvent(obs.KindQueueStall)
		e.Chunk, e.Task = edge, task.Seq
		e.Dur = stall
		ev.Emit(e)
	}
}
