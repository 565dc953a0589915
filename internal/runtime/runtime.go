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
//     a configured headroom would be exceeded. An applicant that no
//     schedule in its space could fit is refused before it is planned,
//     and one that no candidate in its planned pool fits is refused
//     before it is autotuned.
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

// Config configures a Runtime. New validates it and fills the defaults
// of the fields left at zero; a nil pointer or interface field means
// unset. Only Device is required, so Config{Device: dev} is a working
// simulator-backed runtime.
type Config struct {
	// Device is the SoC every session shares. Required.
	Device *soc.Device
	// Engine executes session waves; nil selects pipeline.SimEngine.
	Engine pipeline.Engine
	// BWHeadroom and CoreHeadroom scale the admission capacities (0
	// selects each one's default; negative or non-finite fails New).
	BWHeadroom   float64
	CoreHeadroom float64
	// K is the candidate pool of each (re-)planning pass (0 selects
	// DefaultReplanK; negative fails New). Every pass profiles with
	// DefaultProfileReps and autotunes over DefaultAutotuneTasks.
	K int
	// Seed drives profiling and autotuning noise streams, and with them
	// every plan; a session's AdmitOptions.Seed does not enter planning.
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
	// exact Env, planning knobs) tuple, so a hit returns the schedule
	// the cold solve it replaces would pick (pinned by the equivalence
	// suite); a miss plans cold and stores its ranked candidate pool,
	// and then its autotuned winner. One cache may be shared across
	// runtimes. Nil plans cold on every pass, with the same schedules.
	Cache *schedcache.Cache
	// ReplanDelta, when positive, skips re-planning a resident whose
	// projected environment moved less than this (L∞ over per-class
	// MemIntensity) from the environment its current plan was solved
	// against. The session still picks up the new environment for its
	// next wave; only the solve is elided. 0 re-plans on every pass;
	// negative or non-finite fails New.
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
	// use to simulate a miscalibrated model. ModelAdjustDigest must be
	// set with it, and only with it: it folds into schedule-cache keys so
	// adjusted solves never collide with clean ones.
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
	solves       int // planLocked passes that reached Autotune
	closed       bool

	// Deadline-attainment counters over completed deadline-carrying
	// sessions (AdmitOptions.Deadline > 0; released reservations skip).
	sloSessions int
	sloAttained int
	sloMissed   int
	sloLatency  *metrics.Histogram

	// floors memoizes each app's demand floor on the device, keyed by
	// schedcache.Fingerprint.
	floors map[string]demand
}

// New validates cfg, fills the defaults of its zero fields and builds an
// empty runtime. Every check of a Config value happens here: a bad
// value fails with an error naming the field, never a silent default.
func New(cfg Config) (*Runtime, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("runtime: Config.Device is required")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"BWHeadroom", cfg.BWHeadroom}, {"CoreHeadroom", cfg.CoreHeadroom}, {"ReplanDelta", cfg.ReplanDelta}} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("runtime: Config.%s %v, want a finite value >= 0", f.name, f.v)
		}
	}
	if cfg.K < 0 {
		return nil, fmt.Errorf("runtime: Config.K %d, want >= 0 (0 selects the default)", cfg.K)
	}
	if (cfg.ModelAdjust == nil) != (cfg.ModelAdjustDigest == "") {
		return nil, fmt.Errorf("runtime: Config.ModelAdjust and ModelAdjustDigest must be set together (the digest keys the schedule cache)")
	}
	if cfg.Engine == nil {
		cfg.Engine = pipeline.SimEngine{}
	}
	if cfg.BWHeadroom == 0 {
		cfg.BWHeadroom = DefaultBWHeadroom
	}
	if cfg.CoreHeadroom == 0 {
		cfg.CoreHeadroom = DefaultCoreHeadroom
	}
	if cfg.K == 0 {
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
// Rejections return a *AdmissionError (resources) or ErrClosed. An
// unpinned applicant is first checked with its demand floor, the
// smallest claim over its whole schedule space: when even that does not
// fit, Admit refuses without planning (AdmissionError.Floor). Unless a
// schedule-cache hit already holds the autotuned winner, the ranked
// candidate pool is checked next: when none of the candidates fits,
// Admit refuses without autotuning (AdmissionError.Pool), and a
// configured cache keeps the pool for the next Admit of the app into
// the same environment. Either is exactly the refusal the autotuned
// schedule's check would have ended in.
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
	fp := schedcache.Fingerprint(app)

	residents := rt.residentDemandsLocked()
	if opts.Schedule == nil {
		// No schedule the planner can return fits when even the floor
		// does not: refuse before profiling, solving and autotuning.
		if aerr := rt.checkFit(app.Name, rt.floorLocked(app, fp), residents); aerr != nil {
			aerr.Floor = true
			return nil, rt.rejectLocked(aerr, opts)
		}
	}

	env := rt.envLocked(nil)
	plan, err := rt.planLocked(app, fp, env, opts, func(pool []core.Schedule) *AdmissionError {
		return rt.poolRefusal(app, pool, residents)
	})
	var refused *AdmissionError
	if errors.As(err, &refused) {
		return nil, rt.rejectLocked(refused, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: planning %q: %w", app.Name, err)
	}
	if aerr := rt.checkFit(app.Name, planDemand(plan), residents); aerr != nil {
		return nil, rt.rejectLocked(aerr, opts)
	}

	s := newSession(rt, rt.nextID, app, fp, opts, plan, env)
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

// residentDemandsLocked returns every resident's demand in admission
// order.
func (rt *Runtime) residentDemandsLocked() []demand {
	out := make([]demand, 0, len(rt.resident))
	for _, id := range rt.residentIDs() {
		out = append(out, planDemand(rt.resident[id].currentPlan()))
	}
	return out
}

// floorLocked returns app's demand floor on the runtime's device,
// computing it on the first Admit of an app with fingerprint fp.
func (rt *Runtime) floorLocked(app *core.Application, fp string) demand {
	f, ok := rt.floors[fp]
	if !ok {
		f = demandFloor(app, rt.dev)
		if rt.floors == nil {
			rt.floors = map[string]demand{}
		}
		rt.floors[fp] = f
	}
	return f
}

// checkFit folds the residents' demands onto the newcomer's d, in
// admission order, and reports the first resource whose total exceeds
// its headroom-scaled capacity (bandwidth, then cores), or nil. The
// floor and pool checks pass a demand floor or an unplanned candidate's
// demand as d and mark the refusal. Float addition rounds monotonically,
// so with the same residents in the same order a floor's totals never
// exceed a planned schedule's: a floor refusal is one the planned check
// would make too.
func (rt *Runtime) checkFit(app string, d demand, residents []demand) *AdmissionError {
	for _, r := range residents {
		d = d.plus(r)
	}
	if capBW := rt.cfg.BWHeadroom * rt.dev.DRAMBWGBs; d.bwGBs > capBW {
		return &AdmissionError{App: app, Resource: ResourceBandwidth, Demand: d.bwGBs, Capacity: capBW}
	}
	if capCores := rt.cfg.CoreHeadroom * rt.deviceCores(); d.cores > capCores {
		return &AdmissionError{App: app, Resource: ResourceCores, Demand: d.cores, Capacity: capCores}
	}
	return nil
}

// poolRefusal checks the planner's ranked candidate pool for app against
// the residents before autotuning: nil when some candidate fits, else
// the top-ranked candidate's refusal, marked Pool. Each candidate is
// priced with scheduleDemand on its schedule's chunks, the arithmetic
// planDemand applies to the plan pipeline.NewPlan compiles from it, and
// checkFit folds the residents in the post-plan check's order, so a
// candidate fits here exactly when its plan would pass that check.
// Autotune picks one of the candidates, so when none fits, its winner
// would be refused too. pool must not be empty.
func (rt *Runtime) poolRefusal(app *core.Application, pool []core.Schedule, residents []demand) *AdmissionError {
	intensity := appIntensity(app, rt.dev)
	var top *AdmissionError
	var chunks []core.Chunk
	for _, s := range pool {
		chunks = s.AppendChunks(chunks[:0])
		aerr := rt.checkFit(app.Name, scheduleDemand(rt.dev, chunks, intensity), residents)
		if aerr == nil {
			return nil
		}
		if top == nil {
			top = aerr
		}
	}
	top.Pool = len(pool)
	return top
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
// application under the given external environment: profile the
// interference-heavy table with BaseEnv overlaid, rank the
// BetterTogether candidates, autotune them, and compile the winning
// schedule. A pinned schedule skips optimization. The isolated table is
// not profiled: neither Candidates(BetterTogether) nor Autotune reads
// it, and profiler.Heavy draws the heavy table exactly as ProfileBoth
// would. Profiling and autotuning draw from the runtime's seed alone, so
// the plan is a function of (app, device, environment, knobs), whatever
// the session's seed.
//
// With a schedule cache configured, a lookup keyed on the exact
// environment answers before profiling: an entry with a winner returns
// it; one holding only the ranked pool (its admission was refused, or
// it was evicted before the winner landed) skips profiling and ranking
// and resumes at the pool check. A miss stores the pool before the pool
// check, and the winner is added once autotuning has run. fp is app's
// schedcache.Fingerprint, taken once at Admit.
//
// pool, when non-nil, sees the ranked candidates before autotuning; a
// refusal it returns ends planning with that error. Admit passes its
// pool check; re-plans pass nil.
func (rt *Runtime) planLocked(app *core.Application, fp string, env soc.Env, opts AdmitOptions, pool func([]core.Schedule) *AdmissionError) (*pipeline.Plan, error) {
	if opts.Schedule != nil {
		return pipeline.NewPlan(app, rt.dev, *opts.Schedule)
	}
	adjust, digest := rt.planAdjust()
	cache := rt.cfg.Cache
	var key string
	var e schedcache.Entry
	hit := false
	if cache != nil {
		key = schedcache.Key(fp, rt.dev.Name, env, schedcache.Knobs{
			K:      rt.cfg.K,
			Seed:   rt.cfg.Seed,
			Adjust: digest,
		})
		if e, hit = cache.Get(key); hit && e.Pool == nil {
			return pipeline.NewPlan(app, rt.dev, e.Winner)
		}
	}
	if !hit {
		heavy := profiler.Heavy(app, rt.dev, profiler.Config{
			Reps:    DefaultProfileReps,
			Seed:    rt.cfg.Seed,
			BaseEnv: env,
			Adjust:  adjust,
		})
		opt := sched.New(app, rt.dev, profiler.Tables{Heavy: heavy})
		opt.K = rt.cfg.K
		cands := opt.Candidates(sched.BetterTogether)
		if len(cands) == 0 {
			return nil, sched.ErrNoSchedule
		}
		e.Pool = make([]core.Schedule, len(cands))
		for i, c := range cands {
			e.Pool[i] = c.Schedule
		}
		if cache != nil {
			cache.Put(key, e.Pool)
		}
	}
	if pool != nil {
		if aerr := pool(e.Pool); aerr != nil {
			return nil, aerr
		}
	}
	rt.solves++
	cands := make([]sched.Candidate, len(e.Pool))
	for i, s := range e.Pool {
		cands[i].Schedule = s
	}
	// Autotune reads only the app and the device, never the tables.
	tune, err := sched.New(app, rt.dev, profiler.Tables{}).Autotune(cands, pipeline.Options{
		Tasks:   DefaultAutotuneTasks,
		Warmup:  2,
		Seed:    rt.cfg.Seed,
		BaseEnv: env,
	})
	if err != nil {
		return nil, err
	}
	if cache != nil {
		cache.SetBest(key, tune.BestIndex)
	}
	return pipeline.NewPlan(app, rt.dev, e.Pool[tune.BestIndex])
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
// plan (the old schedule is still valid, only the environment shifted).
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
		plan, err := rt.planLocked(s.app, s.fp, env, s.opts, nil)
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
	}
	var b strings.Builder
	b.WriteString(report.Sessions(fmt.Sprintf("runtime sessions on %s", rt.dev.Label), rows))
	if tl := rt.Timeline(); len(tl.Spans) > 0 {
		b.WriteByte('\n')
		b.WriteString(tl.Gantt(ganttWidth))
	}
	return b.String()
}

// Timeline merges every session's collected timeline, in admission
// order, into one session-qualified timeline (trace.MergeSessions).
// Sessions that collect no trace contribute nothing.
func (rt *Runtime) Timeline() *trace.Timeline {
	var parts []trace.SessionTrace
	for _, s := range rt.Sessions() {
		if tl := s.Timeline(); tl != nil {
			parts = append(parts, trace.SessionTrace{Name: s.Name(), Timeline: tl})
		}
	}
	return trace.MergeSessions(parts...)
}

// errString renders an error for a report cell.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
