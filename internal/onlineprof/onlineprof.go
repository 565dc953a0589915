// Package onlineprof closes the loop between execution and planning:
// it is an obs.Sink that reads per-stage service times out of the
// runtime's events as they are emitted, maintains EWMA estimates per
// (stage, PU class, quantized interference Env), and detects when
// reality has drifted from the model estimates the current schedule was
// solved against. A confirmed drift latches a learned observed/modeled
// ratio and hands the runtime a replan trigger, so schedules converge
// toward what the device actually does — the feedback variant of the
// paper's offline interference-aware profiling (Sec. 3.2), which by
// construction can only see the contention patterns it was calibrated
// with.
//
// Drift detection is deliberately conservative: a cell must accumulate
// a minimum number of samples before it can vote, the smoothed
// estimate must diverge from the model by a relative threshold, and
// the divergence must persist for a configured number of consecutive
// observations (hysteresis) before a drift latches. Once latched, a
// session stays latched until the runtime consumes the drift
// (TakeDrift), replans, and re-registers the new model generation —
// one replan per generation, never a replan storm.
package onlineprof

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/profiler"
)

// Estimator constants, and the defaults of Config fields left zero.
const (
	// DefaultAlpha is the EWMA smoothing factor: ~63% of the estimate's
	// weight sits in the last 1/alpha observations.
	DefaultAlpha = 0.3
	// DefaultDriftThreshold is the relative divergence |ewma/model − 1|
	// at which an observation counts as a drift strike. 0.25 sits well
	// above the profiler's repetition noise and well below the ≥2×
	// stage-level modeling errors the paper reports (Sec. 3.2).
	DefaultDriftThreshold = 0.25
	// DefaultMinSamples is the per-cell sample floor before the cell
	// may vote on drift.
	DefaultMinSamples = 6
	// DefaultHysteresis is the consecutive-strike count required to
	// latch a drift.
	DefaultHysteresis = 3
)

// Config tunes the estimator. Zero values select the defaults above.
type Config struct {
	DriftThreshold float64
	MinSamples     int
	Hysteresis     int
	// DriftHook, when non-nil, is invoked once per latched drift, after
	// the estimator's mutex has been released — hooks may call back into
	// estimator methods or other locked subsystems (the session tracer
	// records its drift-detected span through this).
	DriftHook func(Drift)
}

func (c Config) withDefaults() Config {
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	return c
}

// ModelCell is one (stage, PU) model prediction for a session's current
// schedule: the latency the planner believed when it placed the stage.
type ModelCell struct {
	Stage   string
	PU      core.PUClass
	Seconds float64
}

// Drift is one confirmed model/reality divergence, returned by
// TakeDrift for the runtime to act on.
type Drift struct {
	Session string
	Stage   string
	PU      core.PUClass
	// Gen is the model generation the drift was detected against.
	Gen int64
	// Modeled and Observed are the planner's estimate and the smoothed
	// observation, in seconds; Ratio is Observed/Modeled.
	Modeled, Observed, Ratio float64
}

// cell is one EWMA estimate bucket.
type cell struct {
	ewma float64
	n    int
}

// sessionModel is the drift-tracking state for one admitted session.
type sessionModel struct {
	gen     int64
	envSig  string
	model   map[string]float64 // cellID(stage, pu) -> modeled seconds
	strikes map[string]int
	latched bool
	pending *Drift
}

// Estimator maintains the EWMA cells and per-session drift state. All
// methods are safe for concurrent use; Emit is the hot path and takes
// one mutex acquisition per event.
type Estimator struct {
	cfg Config

	mu       sync.Mutex
	cells    map[string]*cell // cellID + "|" + envSig
	sessions map[string]*sessionModel
	learned  map[string]float64 // cellID -> observed/modeled ratio, latched cells only

	observations uint64
	drifts       uint64
}

// NewEstimator builds an estimator with cfg's zero fields defaulted.
func NewEstimator(cfg Config) *Estimator {
	return &Estimator{
		cfg:      cfg.withDefaults(),
		cells:    make(map[string]*cell),
		sessions: make(map[string]*sessionModel),
		learned:  make(map[string]float64),
	}
}

// Config returns the effective configuration, zero fields defaulted.
func (e *Estimator) Config() Config { return e.cfg }

// cellID keys model entries and learned ratios on (stage, PU).
func cellID(stage string, pu core.PUClass) string {
	return stage + "|" + string(pu)
}

// SetSessionModel registers (or replaces) the model predictions behind
// a session's current schedule: gen identifies the model generation —
// bump it on every replan — and envSig is the quantized signature of
// the interference environment the solve ran against (soc.Env.Signature).
// Registration resets the session's strikes and latch, so each
// generation can trigger at most one drift.
func (e *Estimator) SetSessionModel(session string, gen int64, envSig string, cells []ModelCell) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sm := &sessionModel{
		gen:     gen,
		envSig:  envSig,
		model:   make(map[string]float64, len(cells)),
		strikes: make(map[string]int, len(cells)),
	}
	for _, c := range cells {
		if c.Seconds > 0 {
			sm.model[cellID(c.Stage, c.PU)] = c.Seconds
		}
	}
	e.sessions[session] = sm
}

// RemoveSession drops a session's drift state after exit. Its
// contributions to the global EWMA cells and learned ratios persist —
// that is the point of pooling by environment signature.
func (e *Estimator) RemoveSession(session string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.sessions, session)
}

// Emit implements obs.Sink: it folds one event into the estimator
// before returning. StageDone events carrying an executing PU class
// update the matching EWMA cell and the emitting session's drift
// tracking; every other event is ignored.
func (e *Estimator) Emit(ev obs.Event) {
	if ev.Kind != obs.KindStageDone || ev.PU == "" || ev.Stage == "" || ev.Dur <= 0 {
		return
	}
	// The hook fires after observeStage has released the estimator mutex,
	// so hooks may call back into locked subsystems without ordering risk.
	if d := e.observeStage(ev); d != nil && e.cfg.DriftHook != nil {
		e.cfg.DriftHook(*d)
	}
}

// observeStage folds one StageDone event into the EWMA cells and drift
// tracking under the mutex, returning the drift if this observation
// latched one.
func (e *Estimator) observeStage(ev obs.Event) *Drift {
	seconds := ev.Dur.Seconds()

	e.mu.Lock()
	defer e.mu.Unlock()
	sm, ok := e.sessions[ev.Session]
	if !ok {
		// No registered model: nothing to compare against, and pooling
		// anonymous observations would give cells an untrackable
		// environment. Skip.
		return nil
	}
	e.observations++

	id := cellID(ev.Stage, core.PUClass(ev.PU))
	key := id + "|" + sm.envSig
	c := e.cells[key]
	if c == nil {
		c = &cell{ewma: seconds}
		e.cells[key] = c
	} else {
		c.ewma += DefaultAlpha * (seconds - c.ewma)
	}
	c.n++

	modeled, tracked := sm.model[id]
	if !tracked || sm.latched || c.n < e.cfg.MinSamples {
		return nil
	}
	div := c.ewma/modeled - 1
	if div < 0 {
		div = -div
	}
	if div < e.cfg.DriftThreshold {
		sm.strikes[id] = 0
		return nil
	}
	sm.strikes[id]++
	if sm.strikes[id] < e.cfg.Hysteresis {
		return nil
	}
	// Latch: record the learned correction and park the drift for the
	// runtime to consume at the next wave boundary.
	sm.latched = true
	ratio := c.ewma / modeled
	e.learned[id] = ratio
	e.drifts++
	sm.pending = &Drift{
		Session:  ev.Session,
		Stage:    ev.Stage,
		PU:       core.PUClass(ev.PU),
		Gen:      sm.gen,
		Modeled:  modeled,
		Observed: c.ewma,
		Ratio:    ratio,
	}
	return sm.pending
}

// TakeDrift returns the session's pending drift, if one has latched
// since the session's model generation was registered. The pending
// report is consumed; the latch itself stays set until SetSessionModel
// registers the next generation, so a drift triggers exactly one
// replan.
func (e *Estimator) TakeDrift(session string) (Drift, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sm, ok := e.sessions[session]
	if !ok || sm.pending == nil {
		return Drift{}, false
	}
	d := *sm.pending
	sm.pending = nil
	return d, true
}

// LearnedAdjust renders the latched corrections as a profiler.Adjust
// plus a canonical digest for schedule-cache keying. Cells that never
// latched contribute nothing (ratio 1), so an estimator with no
// confirmed drift returns (nil, "") and planning remains byte-identical
// to the uncorrected path. The digest renders sorted cells at fixed
// precision, so equal corrections always key equally.
func (e *Estimator) LearnedAdjust() (profiler.Adjust, string) {
	e.mu.Lock()
	ratios := make(map[string]float64, len(e.learned))
	for id, r := range e.learned {
		ratios[id] = r
	}
	e.mu.Unlock()
	if len(ratios) == 0 {
		return nil, ""
	}
	ids := make([]string, 0, len(ratios))
	for id := range ratios {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%.4f", id, ratios[id])
	}
	adjust := func(stage string, pu core.PUClass, seconds float64) float64 {
		if r, ok := ratios[cellID(stage, pu)]; ok {
			return seconds * r
		}
		return seconds
	}
	return adjust, b.String()
}

// Estimate reports the current smoothed observation for (stage, PU,
// envSig) and its sample count.
func (e *Estimator) Estimate(stage string, pu core.PUClass, envSig string) (seconds float64, samples int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.cells[cellID(stage, pu)+"|"+envSig]
	if !ok {
		return 0, 0
	}
	return c.ewma, c.n
}

// Stats snapshots the estimator's counters. DriftReplans is owned by
// the runtime (it knows which drifts actually produced a replan) and is
// left zero here.
func (e *Estimator) Stats() obs.OnlineProfStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return obs.OnlineProfStats{
		Observations:    e.observations,
		Cells:           len(e.cells),
		LatchedCells:    len(e.learned),
		DriftsTriggered: e.drifts,
	}
}
