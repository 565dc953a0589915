package soc

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"bettertogether/internal/core"
	"bettertogether/internal/v1rand"
)

// Load describes one busy PU's contribution to the interference
// environment: how much of its peak DRAM draw its current kernel uses.
type Load struct {
	// MemIntensity in [0,1]: 1 means the kernel is fully memory-bound on
	// that PU, 0 means purely compute-bound.
	MemIntensity float64
}

// Env is the interference environment seen by an estimate: the set of
// *other* PU classes currently executing, with their memory loads. A nil
// or empty Env is the isolated case.
type Env map[core.PUClass]Load

// BusyClasses returns the environment's classes in deterministic order.
func (e Env) BusyClasses() []core.PUClass {
	out := make([]core.PUClass, 0, len(e))
	for c := range e {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// Device is one simulated SoC: a set of PU classes over shared DRAM,
// governed by a DVFS policy.
type Device struct {
	// Name identifies the device ("pixel7a", "oneplus11", "jetson",
	// "jetson-lp").
	Name string
	// Label is the human-readable name used in reports.
	Label string
	// PUs are the schedulable classes.
	PUs []PU
	// DRAMBWGBs is the total shared memory-controller bandwidth.
	DRAMBWGBs float64
	// SharedLLC marks devices where CPU and GPU share a last-level cache
	// (the Jetson, Sec. 2.1); co-running irregular kernels then evict
	// each other's working sets.
	SharedLLC bool
	// LLCPenalty is the extra slowdown at Irregularity=1 under full
	// co-location when SharedLLC is set.
	LLCPenalty float64
	// Governor is the DVFS policy.
	Governor Governor
	// NoiseSigma is the lognormal measurement-noise scale of the
	// platform; unrooted Android phones are noisier than the Jetson.
	NoiseSigma float64
	// UncoreWatts is the always-on draw of the memory controller,
	// interconnect, and rails.
	UncoreWatts float64
}

// PU returns the class's model, or nil if the device lacks it.
func (d *Device) PU(class core.PUClass) *PU {
	if k := d.puIndex(class); k >= 0 {
		return &d.PUs[k]
	}
	return nil
}

// puIndex returns the class's index in PUs, or -1 if the device lacks
// it.
func (d *Device) puIndex(class core.PUClass) int {
	for i := range d.PUs {
		if d.PUs[i].Class == class {
			return i
		}
	}
	return -1
}

// Classes returns all PU classes in catalog order.
func (d *Device) Classes() []core.PUClass {
	out := make([]core.PUClass, len(d.PUs))
	for i := range d.PUs {
		out[i] = d.PUs[i].Class
	}
	return out
}

// GPUClass returns the device's GPU class (all catalog devices have
// exactly one GPU).
func (d *Device) GPUClass() core.PUClass {
	for i := range d.PUs {
		if d.PUs[i].Kind == core.KindGPU {
			return d.PUs[i].Class
		}
	}
	return ""
}

// Validate checks the device model's consistency.
func (d *Device) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("soc: device has no name")
	}
	if len(d.PUs) == 0 {
		return fmt.Errorf("soc: device %q has no PUs", d.Name)
	}
	if d.DRAMBWGBs <= 0 {
		return fmt.Errorf("soc: device %q has no DRAM bandwidth", d.Name)
	}
	if d.Governor == nil {
		return fmt.Errorf("soc: device %q has no governor", d.Name)
	}
	for i := range d.PUs {
		if err := d.PUs[i].Validate(); err != nil {
			return fmt.Errorf("soc: device %q: %w", d.Name, err)
		}
		if d.puIndex(d.PUs[i].Class) < i {
			return fmt.Errorf("soc: device %q has duplicate class %q", d.Name, d.PUs[i].Class)
		}
	}
	return nil
}

// Intensity returns the memory intensity of a kernel on a PU class: the
// fraction of its standalone runtime that is memory-bound. Callers use it
// to build Env entries for co-running kernels.
func (d *Device) Intensity(cost core.CostSpec, class core.PUClass) float64 {
	return d.Terms(cost, class).Intensity
}

// Terms is one kernel's cost on one PU class with every part of the
// interference model that depends on neither the clock nor the
// environment already evaluated. Build one with Device.Terms; it is a
// plain value, safe to share read-only.
type Terms struct {
	cost core.CostSpec
	// PU indexes the class in Device.PUs.
	PU int
	// Intensity is the kernel's memory intensity on the class
	// (Device.Intensity): the load it publishes to co-runners.
	Intensity float64
	// eff and occ are the parallel part's efficiency and occupancy
	// (PU.parallelFactors).
	eff, occ float64
}

// Terms evaluates the clock- and environment-independent parts of cost
// on class. It panics if the device lacks the class.
func (d *Device) Terms(cost core.CostSpec, class core.PUClass) Terms {
	k := d.puIndex(class)
	if k < 0 {
		panic(fmt.Sprintf("soc: device %q has no PU class %q", d.Name, class))
	}
	pu := &d.PUs[k]
	t := Terms{cost: cost, PU: k}
	t.eff, t.occ = pu.parallelFactors(cost)
	tc := pu.computeSeconds(cost, t.eff, t.occ, 1)
	tm := pu.memSecondsAlone(cost)
	switch {
	case tm <= 0:
		t.Intensity = 0
	case tc <= 0:
		t.Intensity = 1
	default:
		t.Intensity = tm / tc
		if t.Intensity > 1 {
			t.Intensity = 1
		}
	}
	return t
}

// Estimate returns the modeled execution time in seconds of one kernel
// invocation with the given cost on the given PU class, under the given
// interference environment. This is the simulator's ground truth; the
// framework only ever sees it through Sample (with noise) or through the
// pipeline's virtual clock. It is EstimateIn over freshly built Terms
// and DenseEnv.
func (d *Device) Estimate(cost core.CostSpec, class core.PUClass, env Env) float64 {
	t := d.Terms(cost, class)
	de := d.Dense(env)
	sec, _ := d.EstimateIn(&t, &de)
	return sec
}

// EstimateIn is the interference model: the modeled execution time in
// seconds of the kernel t describes under env, and the governed clock
// multiplier it runs at (the Governor's answer for t's class given
// env.Busy). Every estimate — Device.Estimate, Sample, the pipeline
// simulator's per-event repricing — goes through here. It allocates
// nothing, so a caller that re-evaluates many estimates keeps one
// DenseEnv and one Terms per kernel and updates them in place.
func (d *Device) EstimateIn(t *Terms, env *DenseEnv) (sec, mult float64) {
	pu := &d.PUs[t.PU]
	cost := &t.cost
	mult = d.Governor.Multiplier(pu.Class, env.Busy)

	tCompute := pu.computeSeconds(*cost, t.eff, t.occ, mult)

	// Shared-DRAM contention: bandwidth is split in proportion to demand
	// when the controller is oversubscribed. My demand is my peak draw
	// scaled by my kernel's memory intensity; others contribute their
	// declared loads.
	tMem := 0.0
	if cost.Bytes > 0 {
		myDemand := pu.MemBWGBs * t.Intensity
		total := myDemand
		// Accumulate in device PU order: a fixed summation order keeps
		// the total bit-exact between runs.
		for k := range d.PUs {
			if env.Present[k] {
				total += d.PUs[k].MemBWGBs * env.Load[k]
			}
		}
		avail := pu.MemBWGBs
		if total > d.DRAMBWGBs && myDemand > 0 {
			share := d.DRAMBWGBs * myDemand / total
			if share < avail {
				avail = share
			}
		}
		tMem = cost.Bytes / (avail * 1e9)
	}

	dispatches := cost.Dispatches
	if dispatches < 1 {
		dispatches = 1
	}
	sec = pu.LaunchOverheadSec*dispatches + math.Max(tCompute, tMem)

	// Shared-LLC pollution: irregular working sets co-located with other
	// activity miss more (Jetson only).
	if d.SharedLLC && len(env.Busy) > 0 && cost.Irregularity > 0 {
		frac := float64(len(env.Busy)) / float64(len(d.PUs)-1)
		if frac > 1 {
			frac = 1
		}
		sec *= 1 + cost.Irregularity*d.LLCPenalty*frac
	}
	return sec, mult
}

// Sample returns one noisy measurement: Estimate times one Noise draw,
// standing in for a reading of the paper's hardware timers. Callers that
// measure the same kernel under the same environment many times (the
// profiler's repetitions) evaluate the estimate once with EstimateIn and
// multiply it by a fresh Noise draw per repetition, which is the same
// value bit for bit.
func (d *Device) Sample(cost core.CostSpec, class core.PUClass, env Env, rng *rand.Rand) float64 {
	return d.Estimate(cost, class, env) * d.Noise(rng)
}

// Noise draws the device's multiplicative lognormal measurement noise,
// exp(NoiseSigma·N(0,1)): one NormFloat64 from rng per call. A device
// without noise (NoiseSigma <= 0) or a nil rng returns exactly 1 and
// draws nothing.
func (d *Device) Noise(rng *rand.Rand) float64 {
	if d.NoiseSigma > 0 && rng != nil {
		return math.Exp(d.NoiseSigma * rng.NormFloat64())
	}
	return 1
}

// noiseRands recycles noise generators: reseeding one yields exactly the
// stream a fresh rand.New(rand.NewSource(seed)) would, without allocating
// its 4.9 KB state per use. Their source is v1rand's, which seeds that
// state about five times faster than rand.NewSource's; profiling and
// every Sim run reseed one per query, so that seeding is on the
// admission path.
var noiseRands = sync.Pool{New: func() any { return rand.New(v1rand.NewSource(0)) }}

// NoiseRand returns a pooled generator seeded with seed, for Noise draws.
// Hand it back with PutNoiseRand once the draws are done, and do not use
// it after that.
func NoiseRand(seed int64) *rand.Rand {
	rng := noiseRands.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// PutNoiseRand returns a NoiseRand generator to the pool.
func PutNoiseRand(rng *rand.Rand) { noiseRands.Put(rng) }

// HeavyEnv builds the interference-heavy profiling environment of
// Sec. 3.2: every PU class except `measuring` runs the same computation
// as the measuring PU. Intensities are computed per busy class from that
// kernel's cost.
func (d *Device) HeavyEnv(cost core.CostSpec, measuring core.PUClass) Env {
	env := Env{}
	for i := range d.PUs {
		c := d.PUs[i].Class
		if c == measuring {
			continue
		}
		env[c] = Load{MemIntensity: d.Intensity(cost, c)}
	}
	return env
}
