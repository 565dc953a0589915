package soc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"bettertogether/internal/core"
)

// clampIntensity sanitizes one MemIntensity: NaN and negative values
// clamp to zero, values past full bandwidth saturate at 1. Every Env combinator
// routes intensities through here so a poisoned load (a NaN interference
// ratio, a miscalibrated profile) can never propagate — in particular it
// can never reach Delta, where a NaN compares false against every
// threshold and would silently disable re-planning forever.
func clampIntensity(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Clone returns an independent copy of the environment. A nil receiver
// clones to an empty, non-nil Env, so callers can overlay onto it.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for c, l := range e {
		out[c] = l
	}
	return out
}

// Add folds another load into the class's entry. Memory intensities sum
// and saturate at 1: two co-runners on (or behind) the same class cannot
// draw more than the class's full bandwidth, but together they pin it.
// Both sides are clamped first, so Add refuses to propagate NaN or
// negative intensities into the environment.
func (e Env) Add(class core.PUClass, l Load) {
	cur := e[class]
	cur.MemIntensity = clampIntensity(clampIntensity(cur.MemIntensity) + clampIntensity(l.MemIntensity))
	e[class] = cur
}

// DenseEnv is an interference environment laid out by device PU index:
// the form Device.EstimateIn reads. Device.Dense builds one from an Env;
// the pipeline simulator keeps one per run and rewrites it in place on
// every reprice, so the hot path builds no map and sorts nothing.
type DenseEnv struct {
	// Present[k] marks Device.PUs[k] as busy on behalf of someone else.
	Present []bool
	// Load[k] is PUs[k]'s memory intensity, kept raw as given (Add
	// clamps); zero when Present[k] is false.
	Load []float64
	// Busy lists every busy class in sorted order, including classes the
	// device does not have — exactly Env.BusyClasses of the same
	// environment, and what Governor.Multiplier receives.
	Busy []core.PUClass
}

// Add folds another load into PU k's entry with Env.Add's rule: both
// sides clamped, the sum saturating at 1. It does not touch Busy.
func (e *DenseEnv) Add(k int, l Load) {
	e.Load[k] = clampIntensity(clampIntensity(e.Load[k]) + clampIntensity(l.MemIntensity))
	e.Present[k] = true
}

// Dense lays env out by the device's PU index. Classes the device does
// not have appear only in Busy.
func (d *Device) Dense(env Env) DenseEnv {
	n := len(d.PUs)
	de := DenseEnv{Present: make([]bool, n), Load: make([]float64, n), Busy: env.BusyClasses()}
	for k := range d.PUs {
		if l, ok := env[d.PUs[k].Class]; ok {
			de.Present[k], de.Load[k] = true, l.MemIntensity
		}
	}
	return de
}

// EnvOverlay rebuilds one DenseEnv in place on top of a fixed base
// environment — the BaseEnv overlay that the profiler and the pipeline
// simulator apply to every estimate. Reset copies the base into the
// scratch environment, the caller folds its own loads in with
// DenseEnv.Add, and Seal lists the busy classes in sorted order,
// including base classes the device does not have. The result equals
// Device.Dense of a copy of base with the loads folded in by Env.Add,
// without building a map or sorting per estimate. The returned DenseEnv
// is valid until the next Reset.
type EnvOverlay struct {
	base, env DenseEnv
	// classes is every class that can be busy, sorted: the device's
	// classes (k indexes Device.PUs) and the base's classes the device
	// lacks (k = -1, always busy).
	classes []overlayClass
}

type overlayClass struct {
	class core.PUClass
	k     int
}

// NewEnvOverlay lays base out for repeated in-place rebuilding.
func (d *Device) NewEnvOverlay(base Env) *EnvOverlay {
	n := len(d.PUs)
	o := &EnvOverlay{base: d.Dense(base), classes: make([]overlayClass, 0, n+len(base))}
	for k := range d.PUs {
		o.classes = append(o.classes, overlayClass{d.PUs[k].Class, k})
	}
	for class := range base {
		if d.puIndex(class) < 0 {
			o.classes = append(o.classes, overlayClass{class, -1})
		}
	}
	slices.SortFunc(o.classes, func(a, b overlayClass) int { return cmp.Compare(a.class, b.class) })
	o.env = o.newScratch()
	return o
}

// Clone returns an overlay of the same base with a scratch environment
// of its own, sharing the read-only layout: concurrent users of one
// layout each rebuild in their own clone.
func (o *EnvOverlay) Clone() *EnvOverlay {
	return &EnvOverlay{base: o.base, env: o.newScratch(), classes: o.classes}
}

func (o *EnvOverlay) newScratch() DenseEnv {
	n := len(o.base.Present)
	return DenseEnv{Present: make([]bool, n), Load: make([]float64, n), Busy: make([]core.PUClass, 0, len(o.classes))}
}

// Reset rewrites the scratch environment to the base alone and returns
// it for the caller's Add calls.
func (o *EnvOverlay) Reset() *DenseEnv {
	copy(o.env.Present, o.base.Present)
	copy(o.env.Load, o.base.Load)
	return &o.env
}

// Seal fills the scratch environment's Busy list from its present
// classes and the base's foreign ones, and returns it.
func (o *EnvOverlay) Seal() *DenseEnv {
	e := &o.env
	e.Busy = e.Busy[:0]
	for _, c := range o.classes {
		if c.k < 0 || e.Present[c.k] {
			e.Busy = append(e.Busy, c.class)
		}
	}
	return e
}

// signatureBucket is the intensity quantum of Env.Signature. 0.05
// splits the [0,1] intensity range into 20 cells: coarse enough that
// sessions whose environments differ only by small churn pool their
// samples in one online-profiler cell and reach its sample floor, fine
// enough that a co-runner's materially different load gets cells of its
// own.
const signatureBucket = 0.05

// Signature renders the environment's quantization-bucket identity as a
// stable string: each class's MemIntensity rounded to the nearest
// multiple of signatureBucket (clamped into [0,1], NaN-free), classes in
// sorted order, zero buckets dropped. Two environments that quantize to
// the same bucket share a signature; nil, empty, and all-zero
// environments all render "". The online profiler keys its per-(stage,
// PU, Env) estimate cells on this, so near-identical interference
// contexts pool their samples instead of fragmenting into singleton
// cells.
func (e Env) Signature() string {
	var b strings.Builder
	for _, c := range e.BusyClasses() {
		idx := int(math.Floor(clampIntensity(e[c].MemIntensity)/signatureBucket + 0.5))
		if idx == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", c, idx)
	}
	return b.String()
}

// Delta returns the L∞ distance between two environments: the largest
// absolute per-class MemIntensity difference over the union of their
// classes (an absent class counts as zero load). Either side may be
// nil. The runtime's incremental re-planner compares this against its
// skip threshold to decide whether churn moved the environment enough
// to justify a new solve.
//
// Intensities are clamped (NaN/negative to 0, >1 to 1) before
// differencing: a NaN would otherwise poison the comparison — NaN > d is
// false for every d, so a single poisoned class would report delta 0 and
// permanently suppress re-planning.
func (e Env) Delta(other Env) float64 {
	d := 0.0
	for c, l := range e {
		if diff := math.Abs(clampIntensity(l.MemIntensity) - clampIntensity(other[c].MemIntensity)); diff > d {
			d = diff
		}
	}
	for c, l := range other {
		if _, ok := e[c]; ok {
			continue
		}
		if diff := clampIntensity(l.MemIntensity); diff > d {
			d = diff
		}
	}
	return d
}
