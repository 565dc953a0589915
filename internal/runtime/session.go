package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// Session option defaults.
const (
	// DefaultSessionTasks matches the paper's 30-task runs.
	DefaultSessionTasks = 30
	// DefaultWaveTasks is the re-planning granularity: a session executes
	// this many tasks per wave and re-reads its plan between waves, so a
	// re-plan triggered by admission churn takes effect within one wave.
	DefaultWaveTasks = 8
)

// AdmitOptions configure one admitted session.
type AdmitOptions struct {
	// Name identifies the session in reports and metrics namespaces;
	// empty derives "<app>#<id>".
	Name string
	// Tasks is the total number of stream tasks the session processes
	// (<= 0 selects DefaultSessionTasks).
	Tasks int
	// Warmup tasks are prepended to the first wave and excluded from
	// the session's measured aggregates.
	Warmup int
	// WaveTasks is the number of tasks per execution wave (<= 0 selects
	// DefaultWaveTasks). Smaller waves react to re-plans faster; larger
	// waves amortize pipeline fill better.
	WaveTasks int
	// Seed drives the session's simulation-noise stream.
	Seed int64
	// Schedule pins the session to a fixed schedule: admission skips the
	// profiling/optimization pipeline and the session is never re-planned
	// (its environment still updates). Nil lets the runtime plan and
	// re-plan interference-aware.
	Schedule *core.Schedule
	// Hold defers execution: the session is planned, admitted, and
	// occupies admission capacity (its projected demand reserves headroom
	// and its steady-state load shapes other sessions' environments), but
	// no wave runs until the caller invokes Session.Start. This is the
	// reservation shape fleet placement replays need — admit
	// deterministically first, execute on the caller's clock later. Stop
	// and Runtime.Close release held sessions themselves, so a held
	// session never wedges shutdown.
	Hold bool
	// Deadline is the session's SLO budget in seconds of measured elapsed
	// time (virtual seconds under the Sim engine): a session whose waves
	// sum past it — or that fails — has missed its deadline. Attainment
	// is recorded at session end into Runtime.SLOStats and the session
	// tracer's verdict. 0 attaches no deadline; negative or non-finite
	// values fail Admit.
	Deadline float64
	// CollectMetrics aggregates a per-session metrics.Pipeline across
	// waves; CollectTrace accumulates a session-local trace.Timeline.
	CollectMetrics bool
	CollectTrace   bool
}

// withDefaults resolves the options for an admitted session.
func (o AdmitOptions) withDefaults(app *core.Application, id int) AdmitOptions {
	if o.Name == "" {
		o.Name = fmt.Sprintf("%s#%d", app.Name, id)
	}
	if o.Tasks <= 0 {
		o.Tasks = DefaultSessionTasks
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.WaveTasks <= 0 {
		o.WaveTasks = DefaultWaveTasks
	}
	if o.Schedule != nil {
		// Deep-copy the pin so callers cannot mutate it after admission.
		sc := core.Schedule{Assign: append([]core.PUClass(nil), o.Schedule.Assign...)}
		o.Schedule = &sc
	}
	return o
}

// Session is one admitted application's execution on a Runtime. It runs
// on its own goroutine in waves of WaveTasks, snapshotting its (plan,
// environment) pair before each wave, so re-plans from admission churn
// land between waves without interrupting in-flight tasks.
type Session struct {
	id   int
	rt   *Runtime
	app  *core.Application
	opts AdmitOptions
	// fp is app's schedcache.Fingerprint, taken at admission: the
	// floor-memo and schedule-cache key of every plan the session gets.
	fp string

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	// started gates the run goroutine: exactly one Start launches it,
	// whether from Admit (the default), the holder's Start call, or a
	// Stop/Close unwinding a held session. launched mirrors whether that
	// gate has fired, so Held can answer without racing the Once.
	started  sync.Once
	launched atomic.Bool

	mu   sync.Mutex
	plan *pipeline.Plan
	env  soc.Env
	// planEnv is the environment the current plan was solved against;
	// unlike env it does not move on delta-skipped or failed re-plans,
	// so the runtime's ReplanDelta comparison measures cumulative drift
	// since the last actual solve rather than per-churn increments.
	planEnv   soc.Env
	replans   int
	schedules []core.Schedule
	// modelGen numbers the session's model registrations with the
	// online-profiling estimator; each (re-)plan opens a generation.
	modelGen int64

	// Aggregates across waves. perTaskW is Σ perTask×tasks so PerTask is
	// the completion-weighted mean; processed includes warmup (which also
	// burned energy); offset is the session-local clock the next wave's
	// trace spans shift by.
	tasks     int
	processed int
	perTaskW  float64
	elapsed   float64
	energyJ   float64
	offset    float64
	met       *metrics.Pipeline
	tl        *trace.Timeline
	err       error
}

// newSession builds a session around its initial plan; run() is started
// by Admit after registration.
func newSession(rt *Runtime, id int, app *core.Application, fp string, opts AdmitOptions, plan *pipeline.Plan, env soc.Env) *Session {
	ctx, cancel := context.WithCancel(context.Background())
	return &Session{
		id: id, rt: rt, app: app, fp: fp, opts: opts,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		plan: plan, env: env, planEnv: env,
		schedules: []core.Schedule{plan.Schedule},
	}
}

// run is the session goroutine: waves of WaveTasks until the task budget
// is spent, the session is stopped, or a wave fails. Departure
// re-planning (rt.exit) runs before done closes, so by the time Wait
// returns the remaining residents have already been re-planned.
func (s *Session) run() {
	defer close(s.done)
	defer s.rt.exit(s)
	defer func() {
		// Runs before exit/close (LIFO), so for one session every
		// WaveEnd precedes its SessionEnd on the stream.
		res := s.Snapshot()
		canceled := errors.Is(res.Err, context.Canceled)
		// A canceled session with zero tasks is a released reservation
		// (the source half of a migration): the same-named session
		// continues elsewhere, so it neither counts toward SLO
		// attainment nor closes the causal trace.
		released := canceled && res.Tasks == 0
		attained := false
		if s.opts.Deadline > 0 && !released {
			attained = res.Err == nil && res.Elapsed <= s.opts.Deadline
			s.rt.recordSLO(res.Elapsed, attained)
		}
		s.rt.cfg.Trace.SessionEnd(s.opts.Name, res.Elapsed, s.opts.Deadline,
			res.Tasks, canceled, errString(res.Err))
		s.rt.emit(func(e *obs.Event) {
			e.Kind = obs.KindSessionEnd
			e.Session = s.opts.Name
			if res.Err != nil {
				e.Detail = res.Err.Error()
			}
			if s.opts.Deadline > 0 && !released {
				// Deadline-carrying sessions annotate the stream event;
				// the zero-deadline path stays byte-identical to the
				// pre-SLO one.
				e.Dur = time.Duration(res.Elapsed * float64(time.Second))
				verdict := "missed"
				if attained {
					verdict = "attained"
				}
				if e.Detail != "" {
					e.Detail += "; "
				}
				e.Detail += fmt.Sprintf("slo %s (deadline %.3gs)", verdict, s.opts.Deadline)
			}
		})
	}()
	sink := obs.WithSession(s.rt.cfg.Events, s.opts.Name)
	remaining := s.opts.Tasks
	for wave := 0; remaining > 0; wave++ {
		if err := s.ctx.Err(); err != nil {
			s.fail(err)
			return
		}
		plan, env := s.planSnapshot()
		n := s.opts.WaveTasks
		if n > remaining {
			n = remaining
		}
		warm := 0
		if wave == 0 {
			warm = s.opts.Warmup
		}
		o := pipeline.Options{
			Tasks:   n,
			Warmup:  warm,
			Seed:    s.opts.Seed + int64(wave)*1009,
			BaseEnv: env,
			Events:  sink,
		}
		if s.opts.CollectMetrics {
			o.Metrics = pipeline.NewMetricsFor(plan, o)
		}
		if s.opts.CollectTrace {
			o.Trace = &trace.Timeline{}
		}
		wv := wave
		s.rt.emit(func(e *obs.Event) {
			e.Kind = obs.KindWaveStart
			e.Session = s.opts.Name
			e.Wave, e.Task = wv, n
			e.Detail = plan.Schedule.String()
		})
		s.rt.cfg.Trace.WaveStart(s.opts.Name, wv, n, plan.Schedule.String())
		r := s.rt.eng.Run(s.ctx, plan, o)
		s.absorb(r, o.Metrics, o.Trace, warm)
		s.rt.emit(func(e *obs.Event) {
			e.Kind = obs.KindWaveEnd
			e.Session = s.opts.Name
			e.Wave, e.Task = wv, len(r.Completions)
			e.Dur = time.Duration(r.Elapsed * float64(time.Second))
			if r.Err != nil {
				e.Detail = r.Err.Error()
			}
		})
		s.rt.cfg.Trace.WaveEnd(s.opts.Name, wv, r.Elapsed)
		if r.Err != nil {
			s.fail(r.Err)
			return
		}
		remaining -= n
		if remaining > 0 {
			// Wave boundary: let the online profiler act on drift it
			// observed in this wave, so the replacement plan lands
			// before the next wave snapshots.
			s.rt.applyDrift(s)
		}
	}
}

// absorb folds one wave's result into the session aggregates. The wave
// has finished, so its collector and timeline are quiescent — safe to
// merge.
func (s *Session) absorb(r pipeline.Result, m *metrics.Pipeline, tl *trace.Timeline, warm int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(r.Completions)
	s.tasks += n
	s.processed += n + warm
	s.perTaskW += r.PerTask * float64(n)
	s.elapsed += r.Elapsed
	s.energyJ += r.EnergyJ
	if m != nil {
		if s.met == nil {
			s.met = m
		} else {
			s.met.Merge(m)
		}
	}
	var horizon float64
	if tl != nil {
		horizon = tl.Horizon()
		if s.tl == nil {
			s.tl = &trace.Timeline{}
		}
		for _, sp := range tl.Spans {
			sp.Start += s.offset
			sp.End += s.offset
			s.tl.Add(sp)
		}
	} else if n > 0 {
		horizon = r.Completions[n-1]
	}
	s.offset += horizon
}

// planSnapshot returns the (plan, env) pair the next wave runs under.
func (s *Session) planSnapshot() (*pipeline.Plan, soc.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan, s.env
}

// currentPlan returns the session's live plan (the runtime's demand and
// environment accounting reads it).
func (s *Session) currentPlan() *pipeline.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// setPlan installs a re-planned schedule and environment; a genuinely
// different schedule counts as a re-plan and reports true.
func (s *Session) setPlan(p *pipeline.Plan, env soc.Env) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := !p.Schedule.Equal(s.plan.Schedule)
	if changed {
		s.replans++
		s.schedules = append(s.schedules, p.Schedule)
	}
	s.plan = p
	s.env = env
	s.planEnv = env
	return changed
}

// bumpModelGen opens the session's next model generation.
func (s *Session) bumpModelGen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.modelGen++
	return s.modelGen
}

// planEnvSnapshot returns the environment the current plan was solved
// against (the baseline of the runtime's delta-skip comparison).
func (s *Session) planEnvSnapshot() soc.Env {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planEnv
}

// setEnv updates only the environment (pinned-schedule sessions, or
// re-planning that failed and kept the old schedule).
func (s *Session) setEnv(env soc.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.env = env
}

// fail records the session's terminal error (first one wins).
func (s *Session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Start launches the session's execution goroutine. Idempotent: the
// first call wins, later calls (including the implicit one inside Stop
// and Runtime.Close) are no-ops. Admit calls it immediately unless
// AdmitOptions.Hold deferred the launch to the caller.
func (s *Session) Start() {
	s.started.Do(func() {
		s.launched.Store(true)
		if s.opts.Hold && s.ctx.Err() == nil {
			// A held reservation actually launching (not a Stop/Close
			// unwind, whose context is already canceled) is a lifecycle
			// point worth a span.
			s.rt.cfg.Trace.Started(s.opts.Name)
		}
		go s.run()
	})
}

// Held reports whether the session is an unreleased reservation: it was
// admitted with AdmitOptions.Hold and nothing has invoked Start yet (not
// the holder, not Stop, not Runtime.Close). A held session occupies
// admission capacity but executes no waves, which is what makes it
// migratable — a fleet drain can re-place the reservation on another
// node and Release this one without losing any completed work.
func (s *Session) Held() bool {
	return s.opts.Hold && !s.launched.Load()
}

// Release discards a held session's reservation without executing it:
// the session unwinds through the normal exit path (departure
// re-planning of the survivors included) and Wait returns with a
// cancellation error and zero completed tasks. This is the second half
// of the fleet's place-elsewhere-then-release migration — the new
// reservation is admitted on the target node first, then the source
// node's copy is Released. Idempotent, and a no-op beyond Stop on a
// session that already ran.
func (s *Session) Release() { s.Stop() }

// Name returns the session's runtime identity.
func (s *Session) Name() string { return s.opts.Name }

// App returns the session's application.
func (s *Session) App() *core.Application { return s.app }

// Done returns a channel closed when the session has finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// Stop cancels the session and waits for it to unwind. A held session
// that never ran is started with its context already canceled, so it
// exits residency immediately instead of wedging the wait. Idempotent;
// safe concurrently with Wait.
func (s *Session) Stop() {
	s.cancel()
	s.Start()
	<-s.done
}

// Wait blocks until the session finishes and returns its result.
func (s *Session) Wait() SessionResult {
	<-s.done
	return s.Snapshot()
}

// Err returns the session's terminal error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Schedule returns the session's latest schedule.
func (s *Session) Schedule() core.Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.Schedule
}

// Replans returns how often admission churn changed the session's
// schedule.
func (s *Session) Replans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replans
}

// Schedules returns the session's schedule history in order: the initial
// plan followed by one entry per re-plan that changed the assignment.
func (s *Session) Schedules() []core.Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.Schedule(nil), s.schedules...)
}

// Metrics returns the session's aggregated collector (nil unless
// CollectMetrics). Each session owns its collector — rows are never
// shared across sessions — and it is quiescent once the session is done.
func (s *Session) Metrics() *metrics.Pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met
}

// Timeline returns a copy of the session's accumulated trace on its
// session-local clock (nil unless CollectTrace produced spans).
func (s *Session) Timeline() *trace.Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tl == nil {
		return nil
	}
	return &trace.Timeline{Spans: append([]trace.Span(nil), s.tl.Spans...)}
}

// SessionResult is a session's aggregate over every completed wave.
type SessionResult struct {
	// Name and App identify the session.
	Name, App string
	// Tasks counts measured completions; PerTask is the completion-
	// weighted mean per-task latency in seconds; Elapsed sums the waves'
	// measured windows.
	Tasks   int
	PerTask float64
	Elapsed float64
	// EnergyJ is total energy; EnergyPerTaskJ divides by every processed
	// task including warmup (Sim engine only; zero under Real).
	EnergyJ        float64
	EnergyPerTaskJ float64
	// Replans counts schedule changes; Schedule is the latest one.
	Replans  int
	Schedule core.Schedule
	// Err is the session's terminal error, if it did not finish cleanly.
	Err error
}

// Snapshot returns the session's aggregates so far; after Done it is the
// final result.
func (s *Session) Snapshot() SessionResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := SessionResult{
		Name: s.opts.Name, App: s.app.Name,
		Tasks: s.tasks, Elapsed: s.elapsed,
		EnergyJ: s.energyJ,
		Replans: s.replans, Schedule: s.plan.Schedule,
		Err: s.err,
	}
	if s.tasks > 0 {
		res.PerTask = s.perTaskW / float64(s.tasks)
	}
	if s.processed > 0 {
		res.EnergyPerTaskJ = s.energyJ / float64(s.processed)
	}
	return res
}
