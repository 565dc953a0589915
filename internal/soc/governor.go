package soc

import "bettertogether/internal/core"

// Governor models the device's DVFS / power-management policy: given the
// set of busy PU classes, it returns a clock multiplier for a target
// class. This is where the vendor-specific behaviour of Sec. 5.3 lives —
// the effects the paper could not find documentation for and confirmed
// with a mobile vendor's engineers:
//
//   - mobile GPUs *speed up* under heavy CPU load (firmware boosts GPU
//     clocks when the system looks busy);
//   - the OnePlus A510 little cores boost frequency under system load;
//   - CPU clusters throttle as the shared thermal/power budget fills.
type Governor interface {
	// Multiplier returns the clock multiplier for target when the given
	// other classes are busy. 1.0 means nominal clock; >1 is a boost.
	// busyOthers is sorted and valid only for the duration of the call:
	// the pipeline simulator reuses its backing array for the next
	// estimate, so an implementation that keeps the classes must copy
	// them.
	//
	// Multiplier must be a pure function of (target, busyOthers): no
	// state carried between calls, no clock, no randomness. The model
	// relies on it to evaluate each estimate once and reuse it — the
	// profiler calls it once per (stage, class, mode) whatever the
	// repetition count, and the simulator once per reprice — so an
	// impure governor would see fewer calls than measurements.
	Multiplier(target core.PUClass, busyOthers []core.PUClass) float64
}

// DVFSGovernor interpolates each class's multiplier linearly between 1.0
// (system idle apart from the target) and LoadedMult[class] (every other
// class busy), by the fraction of other classes that are busy. This
// captures the monotone "more load, more reaction" behaviour observed on
// all four devices while staying simple enough to calibrate against
// Fig. 7.
type DVFSGovernor struct {
	// NumClasses is the total number of PU classes on the device, used to
	// normalize the load fraction.
	NumClasses int
	// LoadedMult maps each class to its clock multiplier under full
	// system load. Classes absent from the map run at nominal clock
	// regardless of load.
	LoadedMult map[core.PUClass]float64
}

// Multiplier implements Governor.
func (g *DVFSGovernor) Multiplier(target core.PUClass, busyOthers []core.PUClass) float64 {
	loaded, ok := g.LoadedMult[target]
	if !ok || g.NumClasses <= 1 {
		return 1
	}
	frac := float64(len(busyOthers)) / float64(g.NumClasses-1)
	if frac > 1 {
		frac = 1
	}
	return 1 + (loaded-1)*frac
}

// NominalGovernor always returns 1.0 — useful in tests to isolate the
// bandwidth-contention part of the interference model.
type NominalGovernor struct{}

// Multiplier implements Governor.
func (NominalGovernor) Multiplier(core.PUClass, []core.PUClass) float64 { return 1 }
