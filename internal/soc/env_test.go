package soc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bettertogether/internal/core"
)

func TestEnvDeltaBasics(t *testing.T) {
	a := Env{core.ClassBig: {MemIntensity: 0.4}, core.ClassGPU: {MemIntensity: 0.2}}
	b := Env{core.ClassBig: {MemIntensity: 0.1}, core.ClassGPU: {MemIntensity: 0.25}}
	if got := a.Delta(b); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Delta = %v, want 0.3", got)
	}
	if got, want := a.Delta(b), b.Delta(a); got != want {
		t.Fatalf("Delta asymmetric: %v vs %v", got, want)
	}
}

func TestEnvDeltaNilSides(t *testing.T) {
	e := Env{core.ClassBig: {MemIntensity: 0.6}}
	if got := e.Delta(nil); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("Delta(nil) = %v, want 0.6", got)
	}
	if got := Env(nil).Delta(e); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("nil.Delta(e) = %v, want 0.6", got)
	}
	if got := Env(nil).Delta(nil); got != 0 {
		t.Fatalf("nil.Delta(nil) = %v, want 0", got)
	}
}

func TestEnvDeltaAsymmetricClassSets(t *testing.T) {
	// A class present on only one side counts against zero load,
	// whichever side holds it.
	a := Env{core.ClassBig: {MemIntensity: 0.2}}
	b := Env{core.ClassBig: {MemIntensity: 0.2}, core.ClassLittle: {MemIntensity: 0.5}}
	if got := a.Delta(b); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Delta missing other-only class: %v, want 0.5", got)
	}
	if got := b.Delta(a); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Delta missing receiver-only class: %v, want 0.5", got)
	}
}

// TestEnvDeltaNaNNotSuppressed is the bugfix pin: a NaN MemIntensity used
// to compare false against every accumulated maximum (NaN > d is false),
// so a poisoned environment reported delta 0 and the runtime's
// ReplanDelta skip disabled re-planning forever. NaN must clamp to zero
// load instead, leaving the healthy classes' drift visible.
func TestEnvDeltaNaNNotSuppressed(t *testing.T) {
	nan := math.NaN()
	poisoned := Env{
		core.ClassBig: {MemIntensity: nan},
		core.ClassGPU: {MemIntensity: 0.1},
	}
	moved := Env{
		core.ClassBig: {MemIntensity: 0.8},
		core.ClassGPU: {MemIntensity: 0.7},
	}
	got := poisoned.Delta(moved)
	if math.IsNaN(got) {
		t.Fatal("Delta propagated NaN")
	}
	// big: clamp(NaN)=0 vs 0.8 → 0.8; gpu: 0.1 vs 0.7 → 0.6.
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Delta = %v, want 0.8 (NaN clamped to zero load)", got)
	}
	// The symmetric direction must agree.
	if other := moved.Delta(poisoned); math.Abs(other-0.8) > 1e-12 {
		t.Fatalf("reverse Delta = %v, want 0.8", other)
	}
	// A NaN-only divergence is invisible (both clamp to 0) — delta must
	// be 0, not NaN.
	if got := (Env{core.ClassBig: {MemIntensity: nan}}).Delta(Env{core.ClassBig: {MemIntensity: nan}}); got != 0 {
		t.Fatalf("NaN-vs-NaN Delta = %v, want 0", got)
	}
}

func TestEnvDeltaClampsNegativeAndInf(t *testing.T) {
	a := Env{core.ClassBig: {MemIntensity: -3}}
	b := Env{core.ClassBig: {MemIntensity: math.Inf(1)}}
	// clamp(-3)=0 vs clamp(+Inf)=1.
	if got := a.Delta(b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Delta = %v, want 1", got)
	}
}

func TestEnvAddRefusesNaN(t *testing.T) {
	e := Env{core.ClassBig: {MemIntensity: 0.3}}
	e.Add(core.ClassBig, Load{MemIntensity: math.NaN()})
	if got := e[core.ClassBig].MemIntensity; got != 0.3 {
		t.Fatalf("Add(NaN) changed intensity to %v, want 0.3", got)
	}
	// A pre-poisoned entry is repaired on the next Add rather than
	// propagated.
	e[core.ClassGPU] = Load{MemIntensity: math.NaN()}
	e.Add(core.ClassGPU, Load{MemIntensity: 0.2})
	if got := e[core.ClassGPU].MemIntensity; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Add onto NaN entry = %v, want 0.2", got)
	}
	// Negative loads clamp to zero contribution; saturation still holds.
	e.Add(core.ClassGPU, Load{MemIntensity: -5})
	if got := e[core.ClassGPU].MemIntensity; math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Add(-5) moved intensity to %v, want 0.2", got)
	}
	e.Add(core.ClassGPU, Load{MemIntensity: 0.95})
	if got := e[core.ClassGPU].MemIntensity; got != 1 {
		t.Fatalf("Add failed to saturate: %v, want 1", got)
	}
}

func TestEnvOverlayRefusesNaN(t *testing.T) {
	d := NewPixel7a()
	big, gpu := d.puIndex(core.ClassBig), d.puIndex(core.ClassGPU)
	base := Env{core.ClassBig: {MemIntensity: 0.4}}
	o := d.NewEnvOverlay(base)
	e := o.Reset()
	e.Add(big, Load{MemIntensity: math.NaN()})
	e.Add(gpu, Load{MemIntensity: math.NaN()})
	out := o.Seal()
	for k, l := range out.Load {
		if math.IsNaN(l) {
			t.Fatalf("overlay propagated NaN on %s", d.PUs[k].Class)
		}
	}
	if got := out.Load[big]; math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("overlay(NaN) moved big to %v, want 0.4", got)
	}
	// The base is never mutated, and a nil base overlays cleanly.
	if got := base[core.ClassBig].MemIntensity; got != 0.4 {
		t.Fatalf("overlay mutated its base: %v", got)
	}
	o = d.NewEnvOverlay(nil)
	o.Reset().Add(big, Load{MemIntensity: 0.4})
	if out := o.Seal(); math.Abs(out.Load[big]-0.4) > 1e-12 || !slices.Equal(out.Busy, []core.PUClass{core.ClassBig}) {
		t.Fatalf("nil-base overlay = %+v, want big at 0.4", *out)
	}
}

func TestEnvSignature(t *testing.T) {
	a := Env{core.ClassGPU: {MemIntensity: 0.41}, core.ClassBig: {MemIntensity: 0.2}}
	got := a.Signature()
	if got != "big=4,gpu=8" {
		t.Fatalf("Signature = %q, want sorted-class bucket indices big=4,gpu=8", got)
	}
	// Near-identical environments pool into the same bucket signature.
	b := Env{core.ClassGPU: {MemIntensity: 0.39}, core.ClassBig: {MemIntensity: 0.21}}
	if b.Signature() != got {
		t.Fatalf("bucket-adjacent env got distinct signature %q vs %q", b.Signature(), got)
	}
	// But a bucket-crossing change separates.
	c := Env{core.ClassGPU: {MemIntensity: 0.48}, core.ClassBig: {MemIntensity: 0.2}}
	if c.Signature() == got {
		t.Fatal("bucket-crossing env shares a signature")
	}
	// nil, empty, all-zero and all-NaN all render the empty signature.
	for name, e := range map[string]Env{
		"nil":   nil,
		"empty": {},
		"zero":  {core.ClassGPU: {MemIntensity: 0}},
		"nan":   {core.ClassGPU: {MemIntensity: math.NaN()}},
	} {
		if s := e.Signature(); s != "" {
			t.Errorf("%s env signature = %q, want empty", name, s)
		}
	}
	// Intensities past full bandwidth saturate at 1.
	hot := Env{core.ClassGPU: {MemIntensity: 7}}
	if s := hot.Signature(); s != "gpu=20" {
		t.Errorf("saturating signature = %q, want gpu=20", s)
	}
}

// TestEnvOverlayMatchesDenseOverlay checks the in-place overlay against
// Dense over overlay's map, over random bases (own, foreign and
// poisoned intensities) and random added loads, reusing one overlay per
// base so every Reset must clear the previous environment.
func TestEnvOverlayMatchesDenseOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	intensity := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.NaN()
		case 1:
			return -rng.Float64()
		case 2:
			return 1 + rng.Float64()
		}
		return rng.Float64()
	}
	for _, d := range Catalog() {
		classes := append(d.Classes(), "npu", "dsp")
		for trial := 0; trial < 50; trial++ {
			base := Env{}
			for _, c := range classes {
				if rng.Intn(3) == 0 {
					base[c] = Load{MemIntensity: intensity()}
				}
			}
			o := d.NewEnvOverlay(base)
			for rep := 0; rep < 4; rep++ {
				extra := Env{}
				e := o.Reset()
				for k := range d.PUs {
					if rng.Intn(2) == 0 {
						l := Load{MemIntensity: intensity()}
						extra[d.PUs[k].Class] = l
						e.Add(k, l)
					}
				}
				got, want := o.Seal(), d.Dense(overlay(base, extra))
				if !slices.Equal(got.Busy, want.Busy) || !slices.Equal(got.Present, want.Present) ||
					!slices.EqualFunc(got.Load, want.Load, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
					t.Fatalf("%s trial %d: overlay %+v, want %+v (base %v, extra %v)", d.Name, trial, *got, want, base, extra)
				}
			}
		}
	}
}

// overlay returns a new Env combining e with other via Add, the map
// reference the in-place EnvOverlay is checked against. Either side may
// be nil; e is never mutated.
func overlay(e, other Env) Env {
	out := e.Clone()
	for _, c := range other.BusyClasses() {
		out.Add(c, other[c])
	}
	return out
}
