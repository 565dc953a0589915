package cli

import (
	"flag"
	"fmt"
	"math"

	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/runtime"
	"bettertogether/internal/schedcache"
)

// PlannerFlags bundles the planner-tuning flags shared by every command
// that builds runtimes — the schedule cache, the re-plan delta filter,
// and the online-profiling feedback loop. btrun, btfleet and btbench
// used to declare and validate these independently; declaring them here
// keeps the flag names, defaults, help text and fail-fast validation in
// one place.
type PlannerFlags struct {
	// CacheCapacity sizes the schedule cache (0 disables it).
	CacheCapacity int
	// CacheBucket is the cache's Env quantization bucket width
	// (0 selects schedcache.DefaultBucket).
	CacheBucket float64
	// ReplanDelta skips re-planning residents whose Env moved less than
	// this since their last solve (0 re-plans on every pass).
	ReplanDelta float64
	// OnlineProfile enables feedback-driven replanning: learn observed
	// stage service times from the event stream and re-plan sessions
	// whose model has demonstrably drifted.
	OnlineProfile bool
	// DriftThreshold is the relative model divergence that counts as
	// drift (0 selects onlineprof.DefaultDriftThreshold).
	DriftThreshold float64
}

// AddPlannerFlags declares the shared planner flags on fs and returns
// the struct their parsed values land in. Call Validate after
// fs.Parse.
func AddPlannerFlags(fs *flag.FlagSet) *PlannerFlags {
	p := &PlannerFlags{}
	fs.IntVar(&p.CacheCapacity, "sched-cache", 0,
		"memoize planning results in a schedule cache of this capacity (0 = off)")
	fs.Float64Var(&p.CacheBucket, "cache-bucket", 0,
		"schedule-cache Env quantization bucket width (0 = default)")
	fs.Float64Var(&p.ReplanDelta, "replan-delta", 0,
		"skip re-planning a resident whose Env moved less than this since its last solve (0 = always re-plan)")
	fs.BoolVar(&p.OnlineProfile, "online-profile", false,
		"learn observed stage service times from the event stream and re-plan sessions whose model has drifted")
	fs.Float64Var(&p.DriftThreshold, "drift-threshold", 0,
		"online profiling: relative model divergence that counts as drift (0 = default)")
	return p
}

// badKnob reports a value outside the finite non-negative range every
// planner knob requires.
func badKnob(v float64) bool { return v < 0 || math.IsNaN(v) || math.IsInf(v, 0) }

// Validate fails fast on nonsensical knob values: a negative capacity
// would silently disable the cache, a negative bucket would fall back
// to the default width behind the user's back, and a negative (or NaN)
// delta would make every Env.Delta comparison vacuous — each a quiet
// mis-scheduling mode rather than an error the user sees.
func (p *PlannerFlags) Validate() error {
	if p.CacheCapacity < 0 {
		return fmt.Errorf("-sched-cache must be >= 0 (0 disables the cache), got %d", p.CacheCapacity)
	}
	if badKnob(p.CacheBucket) {
		return fmt.Errorf("-cache-bucket must be a finite value >= 0 (0 selects the default %g), got %v",
			schedcache.DefaultBucket, p.CacheBucket)
	}
	if badKnob(p.ReplanDelta) {
		return fmt.Errorf("-replan-delta must be a finite value >= 0 (0 re-plans on every pass), got %v", p.ReplanDelta)
	}
	if badKnob(p.DriftThreshold) {
		return fmt.Errorf("-drift-threshold must be a finite value >= 0 (0 selects the default %g), got %v",
			onlineprof.DefaultDriftThreshold, p.DriftThreshold)
	}
	if p.DriftThreshold > 0 && !p.OnlineProfile {
		return fmt.Errorf("-drift-threshold requires -online-profile")
	}
	return nil
}

// Cache builds the configured schedule cache, nil when disabled. Each
// call builds a fresh cache; call once and share the handle when one
// cache should back several runtimes.
func (p *PlannerFlags) Cache() *schedcache.Cache {
	if p.CacheCapacity <= 0 {
		return nil
	}
	return schedcache.New(p.CacheCapacity, p.CacheBucket)
}

// OnlineProf is the feedback-loop configuration the flags select, nil
// when online profiling is off — the shape fleet.Config.OnlineProf and
// runtime.WithOnlineProfiling consume.
func (p *PlannerFlags) OnlineProf() *onlineprof.Config {
	if !p.OnlineProfile {
		return nil
	}
	return &onlineprof.Config{DriftThreshold: p.DriftThreshold}
}

// RuntimeOptions maps the flags onto runtime functional options for a
// single-runtime command. Unset flags contribute no option, so the
// runtime's own defaults stay in force.
func (p *PlannerFlags) RuntimeOptions() []runtime.Option {
	var opts []runtime.Option
	if c := p.Cache(); c != nil {
		opts = append(opts, runtime.WithSchedCache(c))
	}
	if p.ReplanDelta > 0 {
		opts = append(opts, runtime.WithReplanDelta(p.ReplanDelta))
	}
	if c := p.OnlineProf(); c != nil {
		opts = append(opts, runtime.WithOnlineProfiling(*c))
	}
	return opts
}

// OnlineProfSummary renders the post-run feedback-loop summary line the
// commands print to stderr, "" when online profiling was disabled
// (ok == false).
func OnlineProfSummary(s obs.OnlineProfStats, ok bool) string {
	if !ok {
		return ""
	}
	return fmt.Sprintf("online profiling: %d observations over %d cells, %d drifts (%d cells latched), %d drift re-plans",
		s.Observations, s.Cells, s.DriftsTriggered, s.LatchedCells, s.DriftReplans)
}
