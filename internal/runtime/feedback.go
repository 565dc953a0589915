package runtime

import (
	"fmt"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
)

// teeSink fans one event out to two sinks, letting the online profiler's
// estimator ingest everything the caller's sink receives.
type teeSink struct{ primary, tap obs.Sink }

func (t teeSink) Emit(e obs.Event) {
	t.primary.Emit(e)
	t.tap.Emit(e)
}

// OnlineProfiler returns the feedback estimator, nil when online
// profiling is disabled.
func (rt *Runtime) OnlineProfiler() *onlineprof.Estimator { return rt.estimator }

// ReplansFromDrift counts replans triggered by the online profiler's
// drift detector (as opposed to admission/departure churn).
func (rt *Runtime) ReplansFromDrift() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.driftReplans
}

// OnlineProfStats snapshots the feedback loop's counters — the
// estimator's, plus the runtime-owned drift-replan count. ok is false
// when online profiling is disabled (wire the introspection server's
// OnlineProf hook only when it is true).
func (rt *Runtime) OnlineProfStats() (s obs.OnlineProfStats, ok bool) {
	if rt.estimator == nil {
		return obs.OnlineProfStats{}, false
	}
	s = rt.estimator.Stats()
	s.DriftReplans = rt.ReplansFromDrift()
	return s, true
}

// planAdjust composes the latency-table adjustments active for the next
// solve — the configured model-error injection and the estimator's
// learned corrections — with the canonical digest that keys them in the
// schedule cache. Identity composes to (nil, ""), keeping unadjusted
// planning byte-identical to the pre-feedback path.
func (rt *Runtime) planAdjust() (profiler.Adjust, string) {
	var learned profiler.Adjust
	var ldig string
	if rt.estimator != nil {
		learned, ldig = rt.estimator.LearnedAdjust()
	}
	digest := rt.cfg.ModelAdjustDigest
	if ldig != "" {
		if digest != "" {
			digest += "+"
		}
		digest += "learned:" + ldig
	}
	return profiler.Compose(rt.cfg.ModelAdjust, learned), digest
}

// modelCells projects the model's latency prediction for every stage of
// a plan under its steady-state environment: the external environment
// overlaid with every *other* chunk's standing intensity (the same
// accounting planDemand and addPlanEnv use), passed through the active
// adjustments — exactly what the planner believed when it solved, and
// therefore the baseline drift is measured against.
func (rt *Runtime) modelCells(p *pipeline.Plan, ext soc.Env, adjust profiler.Adjust) []onlineprof.ModelCell {
	var cells []onlineprof.ModelCell
	for i, c := range p.Chunks {
		env := ext.Clone()
		for j, o := range p.Chunks {
			if j == i {
				continue
			}
			env.Add(o.PU, soc.Load{MemIntensity: chunkIntensity(p, o)})
		}
		for si := c.Start; si < c.End; si++ {
			stage := p.App.Stages[si]
			sec := rt.dev.Estimate(stage.Cost, c.PU, env)
			if adjust != nil {
				sec = adjust(stage.Name, c.PU, sec)
			}
			cells = append(cells, onlineprof.ModelCell{Stage: stage.Name, PU: c.PU, Seconds: sec})
		}
	}
	return cells
}

// registerModel (re-)registers a session's model generation with the
// estimator: its current plan's predicted stage latencies and the
// quantized signature of the environment it runs under. Called on
// admission, after every churn re-plan/env update, and after a drift
// replan; each registration opens a fresh generation, so one drift can
// trigger at most one replan.
func (rt *Runtime) registerModel(s *Session) {
	if rt.estimator == nil {
		return
	}
	plan, env := s.planSnapshot()
	adjust, _ := rt.planAdjust()
	rt.estimator.SetSessionModel(
		s.opts.Name,
		s.bumpModelGen(),
		env.Signature(rt.estimator.Bucket()),
		rt.modelCells(plan, env, adjust),
	)
}

// applyDrift is the session wave-boundary feedback hook: consume a
// latched drift if one fired for this session (the estimator has
// already ingested every event emitted so far), and re-solve with the
// learned corrections overlaid. A changed schedule re-plans the other
// residents too, since the session's standing interference contribution
// moved. Pinned sessions never replan, from drift or otherwise.
func (rt *Runtime) applyDrift(s *Session) {
	if rt.estimator == nil || s.opts.Schedule != nil {
		return
	}
	d, ok := rt.estimator.TakeDrift(s.opts.Name)
	if !ok {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || rt.resident[s.id] != s {
		return
	}
	env := rt.envLocked(s)
	plan, err := rt.planLocked(s.app, env, s.opts, []core.Schedule{s.Schedule()})
	if err != nil {
		return
	}
	rt.driftReplans++
	changed := s.setPlan(plan, env)
	rt.registerModel(s)
	rt.emit(func(e *obs.Event) {
		e.Kind = obs.KindDriftReplan
		e.Session = s.opts.Name
		e.Stage = d.Stage
		e.PU = string(d.PU)
		e.Detail = fmt.Sprintf("observed %.3gx modeled on %s/%s; schedule %s",
			d.Ratio, d.Stage, d.PU, plan.Schedule)
	})
	rt.cfg.Trace.DriftReplanned(s.opts.Name, fmt.Sprintf("observed %.3gx modeled on %s/%s; schedule %s",
		d.Ratio, d.Stage, d.PU, plan.Schedule))
	if changed {
		rt.replanLocked(s)
	}
}
