package soc

import (
	"fmt"
	"math"
	"strings"

	"bettertogether/internal/core"
)

// clampIntensity sanitizes one MemIntensity the same way
// schedcache.QuantizeEnv buckets them: NaN and negative values clamp to
// zero, values past full bandwidth saturate at 1. Every Env combinator
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
// Both sides are clamped first, so Add (and Overlay, built on it) refuse
// to propagate NaN or negative intensities into the environment.
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

// Overlay returns a new Env combining e with other via Add. Either side
// may be nil; the receiver is never mutated.
func (e Env) Overlay(other Env) Env {
	out := e.Clone()
	for _, c := range other.BusyClasses() {
		out.Add(c, other[c])
	}
	return out
}

// Signature renders the environment's quantization-bucket identity as a
// stable string: each class's MemIntensity rounded to the nearest
// multiple of bucket (clamped into [0,1], NaN-free), classes in sorted
// order, zero buckets dropped. Two environments that quantize to the
// same bucket share a signature; nil, empty, and all-zero environments
// all render "". The online profiler keys its per-(stage, PU, Env)
// estimate cells on this, so near-identical interference contexts pool
// their samples instead of fragmenting into singleton cells. A
// non-positive (or NaN/Inf) bucket falls back to 0.05, matching
// schedcache.DefaultBucket.
func (e Env) Signature(bucket float64) string {
	if bucket <= 0 || math.IsNaN(bucket) || math.IsInf(bucket, 0) {
		bucket = 0.05
	}
	var b strings.Builder
	for _, c := range e.BusyClasses() {
		idx := int(math.Floor(clampIntensity(e[c].MemIntensity)/bucket + 0.5))
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
