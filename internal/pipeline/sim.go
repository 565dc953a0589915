package pipeline

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// simChunk is one pipeline station in the discrete-event execution.
type simChunk struct {
	idx   int
	pu    core.PUClass
	puIdx int // index of pu in Device.PUs
	start int // first stage index of the chunk
	// terms[i] is stage start+i's cost on pu with the clock- and
	// environment-independent parts of the model evaluated once per run.
	terms []soc.Terms
	queue []simPending // waiting tasks, FIFO
	busy  bool
	// stride is the chunk's weight in the memo key (simState.stateKey).
	stride int

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
	// due is when the current stage completes at the present rate, and
	// dueSeq the run's schedule counter when it was set: the busy chunk
	// with the smallest (due, dueSeq) completes next.
	due    float64
	dueSeq int64

	busySince float64
	busyTotal float64
	// watts is the busy power at the current governed clock; energyJ
	// accumulates the chunk's busy energy.
	watts   float64
	energyJ float64
	// load is the memory intensity of the running stage, published to
	// other chunks' environments.
	load soc.Load
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

// simMemoCap is the most (chunk, chunk-state vector) keys a run memoizes
// estimates for; a plan with more estimates every reprice directly. The
// paper's apps and devices need at most a few hundred.
const simMemoCap = 4096

// simMemo is a run's estimate memo: entry k holds the modeled duration
// and busy power of one chunk's stage under one state of every chunk
// (simState.stateKey). Memos are pooled across runs and cleared for
// each; an entry with a zero estimate is empty (a stage whose estimate
// really is zero is just evaluated again).
type simMemo struct{ vals []simMemoEntry }

type simMemoEntry struct{ est, watts float64 }

var simMemos = sync.Pool{New: func() any { return new(simMemo) }}

// simState is one discrete-event run. Everything in it is local to the
// run; the Plan and the noise sequence are only read, so concurrent runs
// may share them.
type simState struct {
	p    *Plan
	opts Options
	m    *metrics.Pipeline
	// now is the virtual clock: the instant of the completion being
	// processed. seq counts reschedules and orders same-instant
	// completions.
	now float64
	seq int64
	// noise is the run's stage-noise sequence (drawNoise), read in
	// order; drawn counts the multipliers read so far.
	noise []float64
	drawn int

	chunks []simChunk
	// env is Options.BaseEnv laid out once, rewritten in place by envFor
	// on every memo miss.
	env *soc.EnvOverlay
	// memo caches estimates by chunk and state vector; nil when the plan
	// has more keys than the run's cap. states is the number of state
	// vectors (the product of every chunk's stage count plus one).
	memo   *simMemo
	states int

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
// The event loop holds no event queue. Only completions are ever
// scheduled and a busy chunk has exactly one, so each chunk keeps its
// own deadline and the loop picks the earliest among at most M chunks.
// A chunk's rate depends only on which stage every chunk is running (or
// that it is idle) and on the fixed BaseEnv, so each run memoizes the
// model's estimate per such state and evaluates it once; the stage's
// noise multiplies after the lookup. The per-event path allocates
// nothing: environments are rewritten in place (envFor), stage costs are
// pre-evaluated into soc.Terms, and stage noise is drawn up front
// (drawNoise).
//
// ctx is unused here: the driver checks it at entry, and a started
// simulation always completes (virtual time is instant in wall time and
// the event timeline must stay deterministic).
func simRun(_ context.Context, p *Plan, opts Options) runOutcome {
	env := p.Device.NewEnvOverlay(opts.BaseEnv)
	return newSimState(p, opts, drawNoise(p, opts), env, simMemoCap).run()
}

// drawNoise returns the stage-noise sequence of a run of p under
// resolved opts: one Device.Noise multiplier per stage start, in event
// order, (Warmup+Tasks)×len(Stages) of them, drawn from opts.Seed. Every
// task starts every stage once and the draws do not depend on which PU
// runs a stage, so the sequence is the same for every schedule of the
// application on the device. On a noiseless device every multiplier is
// exactly 1 and no generator is seeded.
func drawNoise(p *Plan, opts Options) []float64 {
	mult := make([]float64, (opts.Warmup+opts.Tasks)*len(p.App.Stages))
	var rng *rand.Rand
	if p.Device.NoiseSigma > 0 {
		rng = soc.NoiseRand(opts.Seed)
		defer soc.PutNoiseRand(rng)
	}
	for i := range mult {
		mult[i] = p.Device.Noise(rng)
	}
	return mult
}

// SimNoise is the stage-noise sequence that Sim engine runs of one
// application on one device draw under one set of options, whatever
// their schedule, together with those options' BaseEnv laid out for the
// device. The autotuner draws it once per call and runs every candidate
// on it instead of reseeding, redrawing and re-laying it out per
// candidate. It is read-only after NewSimNoise, so concurrent runs may
// share one.
type SimNoise struct {
	app  *core.Application
	dev  *soc.Device
	opts Options
	mult []float64
	// env is the BaseEnv layout each run clones its scratch from.
	env *soc.EnvOverlay
}

// NewSimNoise draws the sequence of runs of p's application on p's
// device under opts.
func NewSimNoise(p *Plan, opts Options) *SimNoise {
	return &SimNoise{
		app: p.App, dev: p.Device, opts: opts,
		mult: drawNoise(p, opts.withDefaults(p)),
		env:  p.Device.NewEnvOverlay(opts.BaseEnv),
	}
}

// Run executes p on the simulator under the options the sequence was
// drawn for, reading stage noise from it; the result is bit-identical
// to SimEngine{}.Run(ctx, p, opts). p must be a plan of the same
// application and device; Run panics otherwise.
func (n *SimNoise) Run(ctx context.Context, p *Plan) Result {
	if p.App != n.app || p.Device != n.dev {
		panic("pipeline: SimNoise.Run on a plan of another application or device")
	}
	return drive(ctx, p, n.opts, func(_ context.Context, p *Plan, opts Options) runOutcome {
		return newSimState(p, opts, n.mult, n.env.Clone(), simMemoCap).run()
	})
}

// newSimState lays out one run: chunks with their stage terms and
// queues sized for every task that can be in flight, and the memo when
// the plan has at most memoCap keys. noise is the run's drawNoise
// sequence and env its own BaseEnv overlay.
func newSimState(p *Plan, opts Options, noise []float64, env *soc.EnvOverlay, memoCap int) *simState {
	dev := p.Device
	total := opts.Warmup + opts.Tasks
	s := &simState{
		p: p, opts: opts, m: opts.Metrics, noise: noise, env: env,
		chunks:      make([]simChunk, len(p.Chunks)),
		states:      1,
		total:       total,
		completions: make([]float64, 0, opts.Tasks),
	}

	inFlight := min(opts.Buffers, total)
	queues := make([]simPending, len(p.Chunks)*inFlight)
	terms := make([]soc.Terms, len(p.App.Stages))
	for i, c := range p.Chunks {
		for st := c.Start; st < c.End; st++ {
			terms[st] = dev.Terms(p.App.Stages[st].Cost, c.PU)
		}
		s.chunks[i] = simChunk{
			idx: i, pu: c.PU, puIdx: terms[c.Start].PU, start: c.Start,
			terms:  terms[c.Start:c.End],
			queue:  queues[i*inFlight : i*inFlight : (i+1)*inFlight],
			stride: s.states,
		}
		// Saturate past the cap so a wide plan's count cannot overflow;
		// such a run keeps no memo, so its strides go unused.
		s.states = min(s.states*(c.End-c.Start+1), memoCap+1)
	}
	if n := len(s.chunks) * s.states; n <= memoCap {
		s.memo = simMemos.Get().(*simMemo)
		if cap(s.memo.vals) < n {
			s.memo.vals = make([]simMemoEntry, n)
		}
		s.memo.vals = s.memo.vals[:n]
		clear(s.memo.vals)
	}
	return s
}

// run primes the first chunk's queue, runs the event loop to the end
// and derives the outcome.
func (s *simState) run() runOutcome {
	prime := min(s.opts.Buffers, s.total)
	c0 := &s.chunks[0]
	for ; s.issued < prime; s.issued++ {
		c0.queue = append(c0.queue, simPending{s.issued, 0})
	}
	if s.m != nil {
		s.m.QueueDepth(len(s.chunks)-1, len(c0.queue))
	}
	s.tryStart(c0)
	s.reprice(-1)
	for {
		var next *simChunk
		for i := range s.chunks {
			c := &s.chunks[i]
			if c.busy && (next == nil || c.due < next.due || c.due == next.due && c.dueSeq < next.dueSeq) {
				next = c
			}
		}
		if next == nil {
			break
		}
		s.now = next.due
		s.finishStage(next)
	}
	if s.memo != nil {
		simMemos.Put(s.memo)
		s.memo = nil
	}
	return s.outcome()
}

// envFor rewrites the scratch environment to what chunk me sees: the
// BaseEnv overlay plus every other busy chunk's load (Env.Add's rule),
// and the sorted busy-class list the governor reads.
func (s *simState) envFor(me int) *soc.DenseEnv {
	e := s.env.Reset()
	for i := range s.chunks {
		if c := &s.chunks[i]; i != me && c.busy {
			// Contiguity gives each class at most one chunk, so with no
			// BaseEnv this sets the entry exactly; with one, loads on a
			// shared class combine with saturation.
			e.Add(c.puIdx, c.load)
		}
	}
	return s.env.Seal()
}

// stateKey numbers the present state of every chunk: chunk i contributes
// 0 when idle and stagePos+1 when busy, times its stride. Every chunk's
// environment is a function of this vector and the run's BaseEnv.
func (s *simState) stateKey() int {
	key := 0
	for i := range s.chunks {
		if c := &s.chunks[i]; c.busy {
			key += (c.stagePos + 1) * c.stride
		}
	}
	return key
}

// estimate returns c's modeled stage duration (before noise) and busy
// power in the state key numbers, from the memo when the run keeps one.
func (s *simState) estimate(c *simChunk, key int) (est, watts float64) {
	if s.memo == nil {
		return s.price(c)
	}
	e := &s.memo.vals[c.idx*s.states+key]
	if e.est == 0 {
		e.est, e.watts = s.price(c)
	}
	return e.est, e.watts
}

// price evaluates the model for c's stage in the present environment.
func (s *simState) price(c *simChunk) (est, watts float64) {
	dev := s.p.Device
	est, mult := dev.EstimateIn(&c.terms[c.stagePos], s.envFor(c.idx))
	return est, dev.Power(c.pu, mult, true)
}

// integrate advances c's progress — and its energy — to the current
// time.
func (s *simState) integrate(c *simChunk) {
	dt := s.now - c.lastUpdate
	c.remaining -= dt * c.rate
	if c.remaining < 0 {
		c.remaining = 0
	}
	c.energyJ += dt * c.watts
	c.lastUpdate = s.now
}

// reprice ends every event: it brings each busy chunk up to now (a
// no-op for one that started a stage now) and re-prices it under the
// state the event left, the chunk at index first before the others when
// first >= 0, then the rest in index order. This order breaks ties
// between completions due at the same instant: the later-rescheduled
// chunk completes later.
func (s *simState) reprice(first int) {
	key := s.stateKey()
	if first >= 0 {
		s.schedule(&s.chunks[first], key)
	}
	for i := range s.chunks {
		if c := &s.chunks[i]; i != first && c.busy {
			s.schedule(c, key)
		}
	}
}

// schedule integrates c to now, recomputes its rate in state key and
// sets its deadline.
func (s *simState) schedule(c *simChunk, key int) {
	s.integrate(c)
	est, watts := s.estimate(c, key)
	c.watts = watts
	dur := est * c.noise
	if dur <= 0 {
		dur = 1e-12
	}
	c.rate = 1 / dur
	s.seq++
	c.due, c.dueSeq = s.now+c.remaining*dur, s.seq
}

func (s *simState) startStage(c *simChunk) {
	c.load = soc.Load{MemIntensity: c.terms[c.stagePos].Intensity}
	c.noise = s.noise[s.drawn]
	s.drawn++
	c.remaining = 1
	c.lastUpdate = s.now
	c.stageStart = s.now
}

// finishStage completes c's current stage at now, starts whatever the
// completion frees, and re-prices every busy chunk once.
func (s *simState) finishStage(c *simChunk) {
	s.integrate(c)
	now := s.now
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

// tryStart starts c's first stage on its queue's head task when c is
// idle; the caller re-prices afterwards.
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
		s.m.QueueWait(((c.idx-1)%n+n)%n, simSeconds(s.now-head.at))
	}
	c.task = head.seq
	c.busy = true
	c.stagePos = 0
	c.busySince = s.now
	s.startStage(c)
}

// outcome derives the run's result from the finished event timeline.
func (s *simState) outcome() runOutcome {
	p, m, chunks := s.p, s.m, s.chunks
	if s.opts.Warmup == 0 && len(s.completions) > 0 {
		s.measureStart = 0
	}
	busy := make([]float64, len(chunks))
	// The run ends at its last completion.
	makespan := s.now
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
