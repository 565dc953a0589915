package runtime

import (
	"fmt"
	"math"

	"bettertogether/internal/obs"
	"bettertogether/internal/obs/sessiontrace"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
)

// Option configures a Runtime under construction. Options validate
// eagerly — a nonsensical value fails New with an error naming the
// option, instead of the Config zero-value path's silent defaulting.
type Option func(*Config) error

// New builds a runtime for dev from functional options. This is the
// constructor to use: required state (the device) is a parameter, every
// tunable is an explicit option with fail-fast validation, and an
// unconfigured New(dev) is a fully working simulator-backed runtime.
//
//	rt, err := runtime.New(dev,
//	    runtime.WithSchedCache(cache),
//	    runtime.WithReplanDelta(0.1),
//	    runtime.WithOnlineProfiling(onlineprof.Config{}),
//	)
func New(dev *soc.Device, opts ...Option) (*Runtime, error) {
	cfg := Config{Device: dev}
	for i, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("runtime: option %d is nil", i)
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return NewFromConfig(cfg)
}

// WithEngine selects the execution engine sessions run on (the
// deterministic simulator by default).
func WithEngine(eng pipeline.Engine) Option {
	return func(cfg *Config) error {
		if eng == nil {
			return fmt.Errorf("runtime: WithEngine(nil)")
		}
		cfg.Engine = eng
		return nil
	}
}

// WithHeadroom sets the admission capacities as multiples of the
// device's DRAM bandwidth and core count. Both must be positive and
// finite.
func WithHeadroom(bw, cores float64) Option {
	return func(cfg *Config) error {
		for name, v := range map[string]float64{"bandwidth": bw, "cores": cores} {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("runtime: WithHeadroom %s %v, want positive finite", name, v)
			}
		}
		cfg.BWHeadroom, cfg.CoreHeadroom = bw, cores
		return nil
	}
}

// WithPlanningBudget bounds each (re-)planning pass: profiling
// repetitions, autotuning tasks per candidate, and the candidate pool
// size K. All must be positive.
func WithPlanningBudget(reps, autotune, k int) Option {
	return func(cfg *Config) error {
		for name, v := range map[string]int{"reps": reps, "autotune": autotune, "k": k} {
			if v <= 0 {
				return fmt.Errorf("runtime: WithPlanningBudget %s %d, want positive", name, v)
			}
		}
		cfg.ProfileReps, cfg.AutotuneTasks, cfg.K = reps, autotune, k
		return nil
	}
}

// WithSeed sets the runtime seed driving profiling and autotuning
// noise streams.
func WithSeed(seed int64) Option {
	return func(cfg *Config) error {
		cfg.Seed = seed
		return nil
	}
}

// WithEvents attaches the observability sink. Pass an *obs.Stream to
// feed the introspection server. With WithOnlineProfiling, the sink sees
// exactly the events the online profiler ingests.
func WithEvents(sink obs.Sink) Option {
	return func(cfg *Config) error {
		if sink == nil {
			return fmt.Errorf("runtime: WithEvents(nil)")
		}
		cfg.Events = sink
		return nil
	}
}

// WithSchedCache memoizes planning results in c (shareable across
// runtimes).
func WithSchedCache(c *schedcache.Cache) Option {
	return func(cfg *Config) error {
		if c == nil {
			return fmt.Errorf("runtime: WithSchedCache(nil)")
		}
		cfg.Cache = c
		return nil
	}
}

// WithReplanDelta skips re-planning residents whose projected
// environment moved less than d (L∞ over per-class MemIntensity) since
// their last solve. Zero re-plans on every pass; d must be finite and
// non-negative.
func WithReplanDelta(d float64) Option {
	return func(cfg *Config) error {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("runtime: WithReplanDelta %v, want finite >= 0", d)
		}
		cfg.ReplanDelta = d
		return nil
	}
}

// WithOnlineProfiling enables feedback-driven replanning: an online
// estimator, fed inline by every event the runtime emits, learns
// per-(stage, PU, quantized Env) service times, and replans a session
// when its model estimates have demonstrably drifted from observation.
// Zero Config fields select the onlineprof defaults.
func WithOnlineProfiling(c onlineprof.Config) Option {
	return func(cfg *Config) error {
		cc := c
		cfg.OnlineProf = &cc
		return nil
	}
}

// WithSessionTrace attaches a causal session-lifecycle tracer: sampled
// sessions record parent-linked spans for admission, waves, re-plans,
// drift, and completion (see internal/obs/sessiontrace).
func WithSessionTrace(t *sessiontrace.Tracer) Option {
	return func(cfg *Config) error {
		if t == nil {
			return fmt.Errorf("runtime: WithSessionTrace(nil)")
		}
		cfg.Trace = t
		return nil
	}
}

// WithModelAdjust rescales every profiled latency before planning —
// the error-injection hook the drift-convergence experiments use to
// simulate a miscalibrated model. The digest must be non-empty and
// uniquely identify the adjustment: it is folded into schedule-cache
// keys so adjusted solves never collide with clean ones.
func WithModelAdjust(digest string, adjust profiler.Adjust) Option {
	return func(cfg *Config) error {
		if adjust == nil {
			return fmt.Errorf("runtime: WithModelAdjust(nil adjust)")
		}
		if digest == "" {
			return fmt.Errorf("runtime: WithModelAdjust requires a non-empty digest (schedule-cache keying)")
		}
		cfg.ModelAdjust, cfg.ModelAdjustDigest = adjust, digest
		return nil
	}
}
