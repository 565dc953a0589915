// Package runtime is the long-lived multi-application layer over the
// pipeline engines: one Runtime is bound to one device and admits
// streaming applications as concurrent Sessions.
//
// Where the rest of the framework plans and executes a single
// application in isolation, the runtime models what the paper's Sec. 6
// calls out as future work — several pipelines resident on one SoC:
//
//   - Admission control projects each applicant's steady-state DRAM
//     bandwidth and PU-core demand from its plan, stacks it on every
//     resident session's, and rejects with a typed *AdmissionError when
//     a configured headroom would be exceeded.
//   - Interference-aware re-planning: every admission and departure
//     changes the device's interference environment, so the runtime
//     re-runs the profiling/optimization pipeline for each resident
//     session against the updated soc.Env (profiler Config.BaseEnv,
//     pipeline Options.BaseEnv). Sessions pick up new plans between
//     execution waves.
//   - Per-session namespaced observability: each session owns its own
//     metrics collector and trace timeline; Report merges them into one
//     summary table and a session-qualified Gantt.
package runtime

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/obs/sessiontrace"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/report"
	"bettertogether/internal/sched"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// ErrClosed reports an Admit against a closed runtime.
var ErrClosed = errors.New("runtime: closed")

// Config defaults.
const (
	// DefaultBWHeadroom and DefaultCoreHeadroom scale the device's DRAM
	// bandwidth and core count into admission capacities. Values above 1
	// deliberately tolerate oversubscription: pipelines rarely hold their
	// peak draw on every chunk at once, and the interference model
	// degrades co-runners gracefully rather than failing them.
	DefaultBWHeadroom   = 2.0
	DefaultCoreHeadroom = 2.0
	// DefaultProfileReps is smaller than profiler.DefaultReps because the
	// runtime re-profiles on every admission and departure.
	DefaultProfileReps = 8
	// DefaultAutotuneTasks bounds each candidate's autotuning simulation.
	DefaultAutotuneTasks = 12
	// DefaultReplanK is the candidate pool per (re-)planning pass —
	// smaller than sched.DefaultK, again because re-planning is frequent.
	DefaultReplanK = 8
)

// Config configures a Runtime.
type Config struct {
	// Device is the SoC every session shares. Required.
	Device *soc.Device
	// Engine executes session waves; nil selects pipeline.SimEngine.
	Engine pipeline.Engine
	// BWHeadroom and CoreHeadroom scale the admission capacities
	// (<= 0 selects the defaults).
	BWHeadroom   float64
	CoreHeadroom float64
	// ProfileReps, AutotuneTasks, and K bound each (re-)planning pass
	// (<= 0 selects the defaults).
	ProfileReps   int
	AutotuneTasks int
	K             int
	// Seed drives profiling and autotuning noise streams.
	Seed int64
	// Events, when non-nil, receives typed runtime observability events:
	// Admit/Reject on every admission decision, Replan when churn changes
	// a resident's schedule, WaveStart/WaveEnd around each session wave,
	// SessionEnd on departure — plus the engine-level events of every
	// wave, tagged with the owning session's name. Pass an *obs.Stream to
	// feed the introspection server's /events endpoint.
	Events obs.Sink
	// Cache, when non-nil, memoizes planning results across admissions
	// and re-plans, keyed on a canonicalized (app fingerprint, device,
	// quantized Env, planning knobs) tuple. Planning then runs against
	// the cache's bucket-quantized environment, so a hit returns a
	// schedule byte-identical to the cold solve it replaces (pinned by
	// the equivalence suite); a miss warm-starts the solver from the
	// session's previous schedule and stores the result. One cache may
	// be shared across runtimes. Nil plans cold on every pass (the
	// pre-cache behavior, bit-exact).
	Cache *schedcache.Cache
	// ReplanDelta, when positive, skips re-planning a resident whose
	// projected environment moved less than this (L∞ over per-class
	// MemIntensity) from the environment its current plan was solved
	// against. The session still picks up the new environment for its
	// next wave; only the solve is elided. 0 re-plans on every pass.
	ReplanDelta float64
	// OnlineProf, when non-nil, enables feedback-driven replanning: an
	// online estimator learns per-(stage, PU, quantized Env) service
	// times from every event the runtime emits, and a session whose model
	// estimates have drifted past the configured threshold is re-planned
	// with the learned corrections overlaid on its profiled tables. The
	// estimator is teed in behind Events (or stands alone when Events is
	// nil) and ingests each event synchronously on the emitting goroutine.
	OnlineProf *onlineprof.Config
	// ModelAdjust, when non-nil, rescales every profiled latency before
	// planning — the error-injection hook drift-convergence experiments
	// use to simulate a miscalibrated model. ModelAdjustDigest must then
	// be non-empty: it folds into schedule-cache keys so adjusted solves
	// never collide with clean ones.
	ModelAdjust       profiler.Adjust
	ModelAdjustDigest string
	// Trace, when non-nil, receives causal session-lifecycle span hooks
	// for sampled sessions: hold/admit, waves, churn and drift re-plans,
	// and the end-of-session verdict. With OnlineProf also enabled, the
	// estimator's drift latches are recorded as drift-detected spans
	// (unless the caller installed its own OnlineProf.DriftHook).
	Trace *sessiontrace.Tracer
}

// Runtime is a long-lived multi-application execution context bound to
// one device. Construct with New; admit applications with Admit.
type Runtime struct {
	cfg Config
	dev *soc.Device
	eng pipeline.Engine

	// Online-profiling feedback loop (nil unless Config.OnlineProf).
	estimator *onlineprof.Estimator

	mu           sync.Mutex
	nextID       int
	resident     map[int]*Session
	history      []*Session
	rejected     int
	skipped      int
	driftReplans int
	closed       bool

	// Deadline-attainment counters over completed deadline-carrying
	// sessions (AdmitOptions.Deadline > 0; released reservations skip).
	sloSessions int
	sloAttained int
	sloMissed   int
	sloLatency  *metrics.Histogram
}

// NewFromConfig validates a Config and builds an empty runtime.
//
// Deprecated: use New with functional options — it separates required
// state (the device) from tunables and validates each option at the
// call site instead of silently defaulting zero values. NewFromConfig
// remains for callers that assemble configuration dynamically.
func NewFromConfig(cfg Config) (*Runtime, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("runtime: config has no device")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.ModelAdjust != nil && cfg.ModelAdjustDigest == "" {
		return nil, fmt.Errorf("runtime: ModelAdjust requires ModelAdjustDigest (schedule-cache keying)")
	}
	if cfg.Engine == nil {
		cfg.Engine = pipeline.SimEngine{}
	}
	if cfg.BWHeadroom <= 0 {
		cfg.BWHeadroom = DefaultBWHeadroom
	}
	if cfg.CoreHeadroom <= 0 {
		cfg.CoreHeadroom = DefaultCoreHeadroom
	}
	if cfg.ProfileReps <= 0 {
		cfg.ProfileReps = DefaultProfileReps
	}
	if cfg.AutotuneTasks <= 0 {
		cfg.AutotuneTasks = DefaultAutotuneTasks
	}
	if cfg.K <= 0 {
		cfg.K = DefaultReplanK
	}
	rt := &Runtime{dev: cfg.Device, resident: map[int]*Session{}}
	if cfg.OnlineProf != nil {
		opCfg := *cfg.OnlineProf
		if cfg.Trace != nil && opCfg.DriftHook == nil {
			tr := cfg.Trace
			opCfg.DriftHook = func(d onlineprof.Drift) {
				tr.DriftDetected(d.Session, d.Stage, string(d.PU), d.Ratio)
			}
		}
		rt.estimator = onlineprof.NewEstimator(opCfg)
		// Feed the estimator inline: every event is counted before Emit
		// returns, so its state follows program order.
		if cfg.Events != nil {
			cfg.Events = teeSink{cfg.Events, rt.estimator}
		} else {
			cfg.Events = rt.estimator
		}
	}
	rt.cfg = cfg
	rt.eng = cfg.Engine
	return rt, nil
}

// Device returns the shared device.
func (rt *Runtime) Device() *soc.Device { return rt.dev }

// Engine returns the execution engine sessions run on.
func (rt *Runtime) Engine() pipeline.Engine { return rt.eng }

// Cache returns the schedule cache, nil when planning is uncached.
func (rt *Runtime) Cache() *schedcache.Cache { return rt.cfg.Cache }

// ReplansSkipped counts re-planning passes elided because the projected
// environment delta stayed below Config.ReplanDelta.
func (rt *Runtime) ReplansSkipped() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.skipped
}

// Admit plans the application against the current interference
// environment, checks projected resource demand against the headroom
// capacities, and — if accepted — starts a Session and re-plans every
// resident session against the environment the newcomer creates.
// Rejections return a *AdmissionError (resources) or ErrClosed.
func (rt *Runtime) Admit(app *core.Application, opts AdmitOptions) (*Session, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, ErrClosed
	}
	if app == nil {
		return nil, fmt.Errorf("runtime: admit nil application")
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if d := opts.Deadline; d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return nil, fmt.Errorf("runtime: admit %q: deadline must be a finite value >= 0 (0 disables the SLO), got %v", app.Name, d)
	}
	opts = opts.withDefaults(app, rt.nextID)

	env := rt.envLocked(nil)
	plan, err := rt.planLocked(app, env, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("runtime: planning %q: %w", app.Name, err)
	}

	total := planDemand(plan)
	for _, id := range rt.residentIDs() {
		total = total.plus(planDemand(rt.resident[id].currentPlan()))
	}
	if capBW := rt.cfg.BWHeadroom * rt.dev.DRAMBWGBs; total.bwGBs > capBW {
		return nil, rt.rejectLocked(&AdmissionError{App: app.Name, Resource: ResourceBandwidth, Demand: total.bwGBs, Capacity: capBW}, opts)
	}
	if capCores := rt.cfg.CoreHeadroom * rt.deviceCores(); total.cores > capCores {
		return nil, rt.rejectLocked(&AdmissionError{App: app.Name, Resource: ResourceCores, Demand: total.cores, Capacity: capCores}, opts)
	}

	s := newSession(rt, rt.nextID, app, opts, plan, env)
	rt.nextID++
	rt.resident[s.id] = s
	rt.history = append(rt.history, s)
	rt.emit(func(e *obs.Event) {
		e.Kind = obs.KindAdmit
		e.Session = s.opts.Name
		e.Detail = plan.Schedule.String()
	})
	rt.cfg.Trace.Admitted(s.opts.Name, app.Name, plan.Schedule.String(), opts.Hold)
	rt.registerModel(s)
	rt.replanLocked(s)
	if !opts.Hold {
		s.Start()
	}
	return s, nil
}

// rejectLocked counts a refused admission and emits its Reject event.
func (rt *Runtime) rejectLocked(err *AdmissionError, opts AdmitOptions) error {
	rt.rejected++
	rt.emit(func(e *obs.Event) {
		e.Kind = obs.KindReject
		e.Session = opts.Name
		e.Detail = err.Error()
	})
	return err
}

// emit sends one event to the configured sink, if any. fill mutates a
// pre-initialized event (index fields unset).
func (rt *Runtime) emit(fill func(*obs.Event)) {
	if rt.cfg.Events == nil {
		return
	}
	e := obs.NewEvent(obs.KindAdmit)
	fill(&e)
	rt.cfg.Events.Emit(e)
}

// deviceCores sums the device's PU core counts.
func (rt *Runtime) deviceCores() float64 {
	n := 0
	for i := range rt.dev.PUs {
		n += rt.dev.PUs[i].Cores
	}
	return float64(n)
}

// residentIDs returns resident session IDs in admission order — the
// deterministic iteration order for demand, environment, and re-planning
// passes.
func (rt *Runtime) residentIDs() []int {
	ids := make([]int, 0, len(rt.resident))
	for id := range rt.resident {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// envLocked builds the interference environment seen by a session (or by
// an applicant when except is nil): every other resident session's
// steady-state contribution.
func (rt *Runtime) envLocked(except *Session) soc.Env {
	env := soc.Env{}
	for _, id := range rt.residentIDs() {
		s := rt.resident[id]
		if s == except {
			continue
		}
		addPlanEnv(env, s.currentPlan())
	}
	return env
}

// planLocked runs the interference-aware planning pipeline for one
// application under the given external environment: profile both modes
// with BaseEnv overlaid, optimize with the BetterTogether strategy, and
// compile the winning schedule. A pinned schedule skips optimization.
//
// With a schedule cache configured, the solve runs against the
// bucket-quantized environment (the bucket's canonical representative),
// so a later lookup under any environment in the same bucket returns a
// schedule byte-identical to this cold solve. On a miss, warm seeds the
// optimizer's incumbent set — provably result-neutral, it only
// accelerates the prune — and the chosen schedule is stored.
func (rt *Runtime) planLocked(app *core.Application, env soc.Env, opts AdmitOptions, warm []core.Schedule) (*pipeline.Plan, error) {
	if opts.Schedule != nil {
		return pipeline.NewPlan(app, rt.dev, *opts.Schedule)
	}
	adjust, digest := rt.planAdjust()
	var key string
	if c := rt.cfg.Cache; c != nil {
		env = schedcache.QuantizeEnv(env, c.Bucket())
		key = schedcache.Key(schedcache.Fingerprint(app), rt.dev.Name, env, c.Bucket(), schedcache.Knobs{
			ProfileReps:   rt.cfg.ProfileReps,
			AutotuneTasks: rt.cfg.AutotuneTasks,
			K:             rt.cfg.K,
			Seed:          rt.cfg.Seed + opts.Seed,
			Adjust:        digest,
		})
		if sc, ok := c.Get(key); ok {
			return pipeline.NewPlan(app, rt.dev, sc)
		}
	}
	tables := profiler.ProfileBoth(app, rt.dev, profiler.Config{
		Reps:    rt.cfg.ProfileReps,
		Seed:    rt.cfg.Seed + opts.Seed,
		BaseEnv: env,
		Adjust:  adjust,
	})
	opt := sched.New(app, rt.dev, tables)
	opt.K = rt.cfg.K
	opt.WarmStart = warm
	_, _, best, err := opt.Optimize(sched.BetterTogether, pipeline.Options{
		Tasks:   rt.cfg.AutotuneTasks,
		Warmup:  2,
		Seed:    rt.cfg.Seed + opts.Seed,
		BaseEnv: env,
	})
	if err != nil {
		return nil, err
	}
	if rt.cfg.Cache != nil {
		rt.cfg.Cache.Put(key, best.Schedule)
	}
	return pipeline.NewPlan(app, rt.dev, best.Schedule)
}

// replanLocked re-plans every resident session other than except against
// the updated environment — the interference-aware reaction to admission
// churn. Pinned sessions (AdmitOptions.Schedule != nil) are NEVER
// re-planned: they only get the environment update, even when a
// configured schedule cache could supply a plan for the new environment
// — the pin is a caller contract, not a planning shortcut (pinned by
// test with a cache enabled). When the projected environment delta stays
// below Config.ReplanDelta, the solve is skipped entirely and only the
// environment lands. A session whose re-planning fails keeps its old
// plan (the old schedule is still valid, only the environment shifted);
// otherwise the solve is warm-started from the session's current
// schedule so the cache-miss path prunes aggressively.
func (rt *Runtime) replanLocked(except *Session) {
	for _, id := range rt.residentIDs() {
		s := rt.resident[id]
		if s == except {
			continue
		}
		env := rt.envLocked(s)
		if s.opts.Schedule != nil {
			s.setEnv(env)
			rt.registerModel(s)
			continue
		}
		if d := rt.cfg.ReplanDelta; d > 0 && s.planEnvSnapshot().Delta(env) < d {
			rt.skipped++
			s.setEnv(env)
			rt.registerModel(s)
			continue
		}
		plan, err := rt.planLocked(s.app, env, s.opts, []core.Schedule{s.Schedule()})
		if err != nil {
			s.setEnv(env)
			rt.registerModel(s)
			continue
		}
		if s.setPlan(plan, env) {
			rt.emit(func(e *obs.Event) {
				e.Kind = obs.KindReplan
				e.Session = s.opts.Name
				e.Detail = plan.Schedule.String()
			})
			rt.cfg.Trace.Replanned(s.opts.Name, plan.Schedule.String())
		}
		rt.registerModel(s)
	}
}

// exit removes a finished session from residency and re-plans the
// survivors. Called from the session goroutine before its done channel
// closes.
func (rt *Runtime) exit(s *Session) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.resident[s.id]; !ok {
		return
	}
	delete(rt.resident, s.id)
	if rt.estimator != nil {
		rt.estimator.RemoveSession(s.opts.Name)
	}
	if !rt.closed {
		rt.replanLocked(nil)
	}
}

// recordSLO folds one completed deadline-carrying session into the
// attainment counters. Called from the session goroutine's unwind, for
// sessions with a positive deadline that were not released reservations.
func (rt *Runtime) recordSLO(elapsed float64, attained bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.sloSessions++
	if attained {
		rt.sloAttained++
	} else {
		rt.sloMissed++
	}
	if rt.sloLatency == nil {
		rt.sloLatency = &metrics.Histogram{}
	}
	rt.sloLatency.Observe(time.Duration(elapsed * float64(time.Second)))
}

// SLOStats snapshots the deadline-attainment counters. ok is false
// while no deadline-carrying session has completed — wire the
// introspection server's SLO hook only when deadlines are in play, so
// zero-deadline runs keep their exposition byte-identical.
func (rt *Runtime) SLOStats() (s obs.SLOStats, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.sloSessions == 0 {
		return obs.SLOStats{}, false
	}
	s = obs.SLOStats{Sessions: rt.sloSessions, Attained: rt.sloAttained, Missed: rt.sloMissed}
	if rt.sloLatency != nil {
		h := &metrics.Histogram{}
		h.Merge(rt.sloLatency)
		s.Latency = h
	}
	return s, true
}

// Sessions returns every session ever admitted, in admission order.
func (rt *Runtime) Sessions() []*Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*Session(nil), rt.history...)
}

// Wait blocks until every session admitted so far has finished. Sessions
// admitted with AdmitOptions.Hold must be Started (or Stopped) first, or
// Wait blocks until some other caller releases them.
func (rt *Runtime) Wait() {
	for _, s := range rt.Sessions() {
		<-s.Done()
	}
}

// Close rejects further admissions, stops every resident session, and
// waits for them to unwind.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	residents := make([]*Session, 0, len(rt.resident))
	for _, id := range rt.residentIDs() {
		residents = append(residents, rt.resident[id])
	}
	rt.mu.Unlock()
	for _, s := range residents {
		s.cancel()
		// Held sessions must still unwind: start them against the
		// canceled context so run() exits residency immediately.
		s.Start()
	}
	for _, s := range residents {
		<-s.Done()
	}
}

// Report renders the per-session summary table and, when sessions
// collected traces, the merged session-qualified Gantt. Sessions render
// in admission order, so the report is deterministic for a deterministic
// admission sequence.
func (rt *Runtime) Report(ganttWidth int) string {
	sessions := rt.Sessions()
	rows := make([]report.SessionRow, len(sessions))
	var parts []trace.SessionTrace
	for i, s := range sessions {
		res := s.Snapshot()
		rows[i] = report.SessionRow{
			Name:     res.Name,
			App:      res.App,
			Schedule: res.Schedule.String(),
			Replans:  res.Replans,
			Tasks:    res.Tasks,
			PerTask:  res.PerTask,
			Elapsed:  res.Elapsed,
			EnergyJ:  res.EnergyPerTaskJ,
			Err:      errString(res.Err),
		}
		if tl := s.Timeline(); tl != nil && len(tl.Spans) > 0 {
			parts = append(parts, trace.SessionTrace{Name: res.Name, Timeline: tl})
		}
	}
	var b strings.Builder
	b.WriteString(report.Sessions(fmt.Sprintf("runtime sessions on %s", rt.dev.Label), rows))
	if len(parts) > 0 {
		b.WriteByte('\n')
		b.WriteString(trace.MergeSessions(parts...).Gantt(ganttWidth))
	}
	return b.String()
}

// errString renders an error for a report cell.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
