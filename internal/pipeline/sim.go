package pipeline

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/des"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// simChunk is one pipeline station in the discrete-event execution.
type simChunk struct {
	run   *simState
	idx   int
	pu    core.PUClass
	puIdx int // index of pu in Device.PUs
	start int // first stage index of the chunk
	// terms[i] is stage start+i's cost on pu with the clock- and
	// environment-independent parts of the model evaluated once per run.
	terms []soc.Terms
	queue []simPending // waiting tasks, FIFO
	busy  bool

	// Current execution state.
	task     int
	stagePos int
	// noise is the per-stage multiplicative measurement/noise factor,
	// drawn once at stage start.
	noise float64
	// remaining is the unfinished fraction of the current stage (1 → 0).
	remaining float64
	// rate is the current progress rate in fractions/second under the
	// present interference environment.
	rate float64
	// lastUpdate is when remaining was last integrated.
	lastUpdate float64
	// stageStart is when the current stage was dispatched (for tracing).
	stageStart float64
	// version invalidates stale completion events after re-scheduling:
	// it is the tag each completion event carries back to Handle.
	version int64

	busySince float64
	busyTotal float64
	// mult is the current governed clock multiplier and watts the busy
	// power it implies; energyJ accumulates the chunk's busy energy.
	mult    float64
	watts   float64
	energyJ float64
	// load is the memory intensity of the running stage, published to
	// other chunks' environments.
	load soc.Load
}

// Handle implements des.Handler: a completion event finishes the stage
// unless a later reprice superseded it.
func (c *simChunk) Handle(version int64) {
	if version == c.version {
		c.run.finishStage(c)
	}
}

// simPending is one queued task in the discrete-event execution: its
// stream sequence number and when it entered the queue (virtual time),
// so metrics can attribute queue wait.
type simPending struct {
	seq int
	at  float64
}

// simSeconds converts a virtual-time interval to a Duration for the
// metrics histograms.
func simSeconds(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// Simulate executes the plan on the discrete-event simulator.
//
// Deprecated: use SimEngine{}.Run, which routes through the shared
// engine driver. Simulate delegates there and its output is unchanged.
func Simulate(p *Plan, opts Options) Result {
	return SimEngine{}.Run(context.Background(), p, opts)
}

// simRNGs recycles the per-run noise generators: reseeding one yields
// exactly the stream a fresh rand.New(rand.NewSource(seed)) would,
// without allocating its 4.9 KB state per run.
var simRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// simClass is one PU class that can appear in a chunk's environment:
// a device class (k indexes Device.PUs) or a BaseEnv class the device
// does not have (k = -1, busy for the whole run).
type simClass struct {
	class core.PUClass
	k     int
}

// simState is one discrete-event run. Everything in it is local to the
// run; the Plan is only read, so concurrent runs may share one.
type simState struct {
	p    *Plan
	opts Options
	m    *metrics.Pipeline
	eng  *des.Engine
	rng  *rand.Rand

	chunks []simChunk
	// base is Options.BaseEnv laid out by PU index, folded in once; env
	// is the scratch environment envFor rewrites for every reprice.
	base, env soc.DenseEnv
	// classes is every class that can be busy, in sorted order, so
	// envFor emits env.Busy already sorted.
	classes []simClass

	total, issued int
	completions   []float64
	measureStart  float64
}

// simRun is the Sim engine's executor: the discrete-event loop over an
// already validated plan and resolved options. Stage progress integrates
// over the *actual* interference environment: each chunk's execution
// rate is re-evaluated from the SoC model every time any other chunk
// starts or stops executing. Unbalanced schedules therefore run partly
// isolated and partly contended — the exact effect that makes isolated
// profiling tables mispredict (Sec. 5.3) and that the gapness objective
// guards against. Options.BaseEnv additionally overlays resident
// co-runners from outside the plan onto every chunk's environment.
//
// The per-event path allocates nothing: environments are rewritten in
// place (envFor), stage costs are pre-evaluated into soc.Terms, and
// completion events carry the chunk's version tag instead of a closure.
//
// ctx is unused here: the driver checks it at entry, and a started
// simulation always completes (virtual time is instant in wall time and
// the event timeline must stay deterministic).
func simRun(_ context.Context, p *Plan, opts Options) runOutcome {
	rng := simRNGs.Get().(*rand.Rand)
	defer simRNGs.Put(rng)
	rng.Seed(opts.Seed)
	s := newSimState(p, opts, rng)
	prime := min(opts.Buffers, s.total)
	c0 := &s.chunks[0]
	for ; s.issued < prime; s.issued++ {
		c0.queue = append(c0.queue, simPending{s.issued, 0})
	}
	if s.m != nil {
		s.m.QueueDepth(len(s.chunks)-1, len(c0.queue))
	}
	s.tryStart(c0)
	s.eng.Run()
	return s.outcome()
}

// newSimState lays out one run: chunks with their stage terms and
// queues sized for every task that can be in flight, the BaseEnv overlay
// and the sorted class list.
func newSimState(p *Plan, opts Options, rng *rand.Rand) *simState {
	dev := p.Device
	total := opts.Warmup + opts.Tasks
	s := &simState{
		p: p, opts: opts, m: opts.Metrics, eng: des.New(), rng: rng,
		chunks:      make([]simChunk, len(p.Chunks)),
		base:        dev.Dense(opts.BaseEnv),
		total:       total,
		completions: make([]float64, 0, opts.Tasks),
	}
	n := len(dev.PUs)
	s.env = soc.DenseEnv{Present: make([]bool, n), Load: make([]float64, n), Busy: make([]core.PUClass, 0, n+len(opts.BaseEnv))}
	for k := range dev.PUs {
		s.classes = append(s.classes, simClass{dev.PUs[k].Class, k})
	}
	for class := range opts.BaseEnv {
		if dev.PU(class) == nil {
			s.classes = append(s.classes, simClass{class, -1})
		}
	}
	slices.SortFunc(s.classes, func(a, b simClass) int { return cmp.Compare(a.class, b.class) })

	inFlight := min(opts.Buffers, total)
	terms := make([]soc.Terms, len(p.App.Stages))
	for i, c := range p.Chunks {
		for st := c.Start; st < c.End; st++ {
			terms[st] = dev.Terms(p.App.Stages[st].Cost, c.PU)
		}
		s.chunks[i] = simChunk{
			run: s, idx: i, pu: c.PU, puIdx: terms[c.Start].PU, start: c.Start,
			terms: terms[c.Start:c.End],
			queue: make([]simPending, 0, inFlight),
		}
	}
	return s
}

// envFor rewrites the scratch environment to what chunk me sees: the
// BaseEnv overlay plus every other busy chunk's load (Env.Add's rule),
// and the sorted busy-class list the governor reads.
func (s *simState) envFor(me int) *soc.DenseEnv {
	e := &s.env
	copy(e.Present, s.base.Present)
	copy(e.Load, s.base.Load)
	for i := range s.chunks {
		if c := &s.chunks[i]; i != me && c.busy {
			// Contiguity gives each class at most one chunk, so with no
			// BaseEnv this sets the entry exactly; with one, loads on a
			// shared class combine with saturation.
			e.Add(c.puIdx, c.load)
		}
	}
	e.Busy = e.Busy[:0]
	for _, sc := range s.classes {
		if sc.k < 0 || e.Present[sc.k] {
			e.Busy = append(e.Busy, sc.class)
		}
	}
	return e
}

// integrate advances c's progress — and its energy — to the current
// time.
func (s *simState) integrate(c *simChunk) {
	now := s.eng.Now()
	dt := now - c.lastUpdate
	c.remaining -= dt * c.rate
	if c.remaining < 0 {
		c.remaining = 0
	}
	c.energyJ += dt * c.watts
	c.lastUpdate = now
}

// schedule recomputes c's rate under the current environment and
// (re)schedules its completion event.
func (s *simState) schedule(c *simChunk) {
	est, mult := s.p.Device.EstimateIn(&c.terms[c.stagePos], s.envFor(c.idx))
	c.mult = mult
	c.watts = s.p.Device.Power(c.pu, mult, true)
	dur := est * c.noise
	if dur <= 0 {
		dur = 1e-12
	}
	c.rate = 1 / dur
	c.version++
	s.eng.ScheduleHandler(c.remaining*dur, c, c.version)
}

// reprice updates every other busy chunk after an environment change.
func (s *simState) reprice(except int) {
	for i := range s.chunks {
		if c := &s.chunks[i]; i != except && c.busy {
			s.integrate(c)
			s.schedule(c)
		}
	}
}

func (s *simState) startStage(c *simChunk) {
	c.load = soc.Load{MemIntensity: c.terms[c.stagePos].Intensity}
	c.noise = 1.0
	if sigma := s.p.Device.NoiseSigma; sigma > 0 {
		c.noise = math.Exp(sigma * s.rng.NormFloat64())
	}
	c.remaining = 1
	c.lastUpdate = s.eng.Now()
	c.stageStart = s.eng.Now()
	s.schedule(c)
}

func (s *simState) finishStage(c *simChunk) {
	s.integrate(c)
	now := s.eng.Now()
	si := c.start + c.stagePos
	if s.m != nil {
		s.m.StageDone(si, simSeconds(now-c.stageStart))
	}
	if s.opts.Events != nil {
		// Purely observational: reads the event clock, touches no RNG,
		// so the virtual timeline is unchanged (pinned by test).
		e := obs.NewEvent(obs.KindStageDone)
		e.Chunk, e.Task = c.idx, c.task
		e.Stage = s.p.App.Stages[si].Name
		e.PU = string(c.pu)
		e.Dur = simSeconds(now - c.stageStart)
		s.opts.Events.Emit(e)
	}
	if s.opts.Trace != nil {
		s.opts.Trace.Add(trace.Span{
			Chunk: c.idx, PU: c.pu,
			Stage: s.p.App.Stages[si].Name, StageIndex: si,
			Task: c.task, Start: c.stageStart, End: now,
		})
	}
	c.stagePos++
	if c.stagePos < len(c.terms) {
		s.startStage(c)
		s.reprice(c.idx)
		return
	}
	c.busy = false
	c.busyTotal += now - c.busySince
	task := c.task
	last := len(s.chunks) - 1
	if c.idx == last {
		if task == s.opts.Warmup-1 {
			s.measureStart = now
		}
		if task >= s.opts.Warmup {
			s.completions = append(s.completions, now)
		}
		if s.issued < s.total {
			c0 := &s.chunks[0]
			c0.queue = append(c0.queue, simPending{s.issued, now})
			if s.m != nil {
				s.m.QueueDepth(last, len(c0.queue))
			}
			s.issued++
			s.tryStart(c0)
		}
	} else {
		next := &s.chunks[c.idx+1]
		next.queue = append(next.queue, simPending{task, now})
		if s.m != nil {
			s.m.QueueDepth(c.idx, len(next.queue))
		}
		s.tryStart(next)
	}
	s.tryStart(c)
	s.reprice(-1)
}

func (s *simState) tryStart(c *simChunk) {
	if c.busy || len(c.queue) == 0 {
		return
	}
	head := c.queue[0]
	// Shift rather than reslice so the queue keeps its backing array:
	// it never holds more than the in-flight tasks.
	c.queue = c.queue[:copy(c.queue, c.queue[1:])]
	if s.m != nil {
		n := len(s.chunks)
		s.m.QueueWait(((c.idx-1)%n+n)%n, simSeconds(s.eng.Now()-head.at))
	}
	c.task = head.seq
	c.busy = true
	c.stagePos = 0
	c.busySince = s.eng.Now()
	s.startStage(c)
	s.reprice(c.idx)
}

// outcome derives the run's result from the finished event timeline.
func (s *simState) outcome() runOutcome {
	p, m, chunks := s.p, s.m, s.chunks
	if s.opts.Warmup == 0 && len(s.completions) > 0 {
		s.measureStart = 0
	}
	busy := make([]float64, len(chunks))
	makespan := s.eng.Now()
	if makespan > 0 {
		for i := range chunks {
			busy[i] = chunks[i].busyTotal / makespan
		}
	}
	if m != nil {
		// Pool utilization, virtual time: a chunk occupies its class's
		// whole pool while busy (the dispatcher owns the lanes), so
		// busy lane-time is busyTotal × width aggregated per class.
		order := poolOrder(p)
		index := make(map[core.PUClass]int, len(order))
		for i, class := range order {
			index[class] = i
		}
		for i := range chunks {
			pool := m.Pool(index[chunks[i].pu])
			pool.AddBusy(simSeconds(chunks[i].busyTotal * float64(pool.Width)))
		}
		m.SetElapsed(simSeconds(makespan))
	}
	out := runOutcome{completions: s.completions, measureStart: s.measureStart, chunkBusy: busy}

	// Energy: busy energy accumulated per chunk, plus idle power for
	// every PU's remaining time, plus the uncore floor. PU classes not
	// used by the schedule idle for the entire run.
	if makespan > 0 {
		energy := p.Device.UncoreWatts * makespan
		busySec := make([]float64, len(p.Device.PUs))
		for i := range chunks {
			energy += chunks[i].energyJ
			busySec[chunks[i].puIdx] += chunks[i].busyTotal
		}
		for k := range p.Device.PUs {
			idle := makespan - busySec[k]
			if idle > 0 {
				energy += p.Device.Power(p.Device.PUs[k].Class, 1, false) * idle
			}
		}
		out.energyJ = energy
		out.energyPerTaskJ = energy / float64(s.total)
		out.avgWatts = energy / makespan
	}
	return out
}
