package cli

import (
	"flag"
	"fmt"
	"math"

	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/schedcache"
)

// PlannerFlags bundles the planner-tuning flags shared by btrun and
// btfleet, the commands that build runtimes — the schedule cache, the
// re-plan delta filter, and the online-profiling feedback loop.
// Declaring them here keeps the flag names, defaults, help text and
// fail-fast validation in one place.
type PlannerFlags struct {
	// CacheCapacity sizes the schedule cache (0 disables it).
	CacheCapacity int
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
// would silently disable the cache, and a negative (or NaN) delta would make every Env.Delta comparison
// vacuous — each a quiet mis-scheduling mode rather than an error the
// user sees.
func (p *PlannerFlags) Validate() error {
	if p.CacheCapacity < 0 {
		return fmt.Errorf("-sched-cache must be >= 0 (0 disables the cache), got %d", p.CacheCapacity)
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
	return schedcache.New(p.CacheCapacity)
}

// OnlineProf is the feedback-loop configuration the flags select, nil
// when online profiling is off — the value runtime.Config.OnlineProf
// and fleet.Config.OnlineProf take.
func (p *PlannerFlags) OnlineProf() *onlineprof.Config {
	if !p.OnlineProfile {
		return nil
	}
	return &onlineprof.Config{DriftThreshold: p.DriftThreshold}
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
