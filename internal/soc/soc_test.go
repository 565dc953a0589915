package soc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bettertogether/internal/core"
)

// denseCost approximates a dense conv layer: compute-bound, regular,
// massively parallel.
var denseCost = core.CostSpec{
	FLOPs: 50e6, Bytes: 2e6, ParallelFraction: 0.995,
	Divergence: 0.05, Irregularity: 0.05, WorkItems: 65536,
}

// sparseCost approximates a CSR kernel: irregular and divergent.
var sparseCost = core.CostSpec{
	FLOPs: 10e6, Bytes: 8e6, ParallelFraction: 0.98,
	Divergence: 0.6, Irregularity: 0.7, WorkItems: 8192,
}

// memCost is a bandwidth-bound streaming kernel.
var memCost = core.CostSpec{
	FLOPs: 1e6, Bytes: 64e6, ParallelFraction: 0.999,
	Divergence: 0.05, Irregularity: 0.1, WorkItems: 1 << 20,
}

func TestCatalogValid(t *testing.T) {
	devs := Catalog()
	if len(devs) != 4 {
		t.Fatalf("catalog has %d devices, want 4", len(devs))
	}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
		if d.GPUClass() == "" {
			t.Errorf("%s: no GPU class", d.Name)
		}
		if len(cpuClasses(d)) == 0 {
			t.Errorf("%s: no CPU classes", d.Name)
		}
	}
}

func TestDeviceByName(t *testing.T) {
	d, err := DeviceByName(Pixel7a)
	if err != nil || d.Name != Pixel7a {
		t.Fatalf("DeviceByName(pixel7a) = %v, %v", d, err)
	}
	if _, err := DeviceByName("iphone"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDeviceByNameMatchesCatalog(t *testing.T) {
	for _, want := range Catalog() {
		got, err := DeviceByName(want.Name)
		if err != nil {
			t.Fatalf("DeviceByName(%q): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("DeviceByName(%q) differs from its Catalog entry", want.Name)
		}
	}
	const wantErr = `soc: unknown device "iphone" (have pixel7a, oneplus11, jetson, jetson-lp)`
	if _, err := DeviceByName("iphone"); err == nil || err.Error() != wantErr {
		t.Errorf("DeviceByName(iphone) error = %v, want %s", err, wantErr)
	}
}

func TestPixelClassStructure(t *testing.T) {
	d := NewPixel7a()
	classes := d.Classes()
	want := []core.PUClass{core.ClassBig, core.ClassMedium, core.ClassLittle, core.ClassGPU}
	if len(classes) != len(want) {
		t.Fatalf("classes = %v", classes)
	}
	for i := range want {
		if classes[i] != want[i] {
			t.Fatalf("classes = %v, want %v", classes, want)
		}
	}
	// Affinity map: 2 big + 2 medium + 4 little = 8 cores, all distinct.
	seen := map[int]bool{}
	total := 0
	for _, c := range cpuClasses(d) {
		for _, id := range d.PU(c).CoreIDs {
			if seen[id] {
				t.Errorf("core ID %d in two clusters", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != 8 {
		t.Errorf("Pixel has %d pinnable cores, want 8", total)
	}
}

func TestOnePlusPartialAffinity(t *testing.T) {
	// Paper: only 5 of 8 cores accept pinning on the OnePlus; the A710
	// cluster is absent from the schedulable classes.
	d := NewOnePlus11()
	total := 0
	for _, c := range cpuClasses(d) {
		total += len(d.PU(c).CoreIDs)
	}
	if total != 6 {
		// 1 X3 + 2 A715 + 3 A510 = 6 listed; of the phone's 8 cores the
		// A710 pair is unpinnable and unlisted.
		t.Errorf("OnePlus schedulable cores = %d, want 6", total)
	}
}

func TestPUValidate(t *testing.T) {
	good := NewJetson().PUs[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("valid PU rejected: %v", err)
	}
	cases := []func(*PU){
		func(p *PU) { p.Class = "" },
		func(p *PU) { p.Cores = 0 },
		func(p *PU) { p.BaseGHz = 0 },
		func(p *PU) { p.EffFlopsPerCycle = 0 },
		func(p *PU) { p.Lanes = 4 }, // CPU with lanes
		func(p *PU) { p.IrregPenalty = 9 },
		func(p *PU) { p.MemBWGBs = 0 },
		func(p *PU) { p.LaunchOverheadSec = -1 },
	}
	for i, corrupt := range cases {
		p := NewJetson().PUs[0]
		corrupt(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid PU accepted", i)
		}
	}
	gpu := NewJetson().PUs[1]
	gpu.Lanes = 0
	if err := gpu.Validate(); err == nil {
		t.Error("GPU without lanes accepted")
	}
}

func TestDeviceValidateCatchesDuplicates(t *testing.T) {
	d := NewJetson()
	d.PUs = append(d.PUs, d.PUs[0])
	if err := d.Validate(); err == nil {
		t.Error("duplicate class accepted")
	}
}

func TestEstimatePositiveEverywhere(t *testing.T) {
	for _, d := range Catalog() {
		for _, c := range d.Classes() {
			for _, cost := range []core.CostSpec{denseCost, sparseCost, memCost} {
				if got := d.Estimate(cost, c, nil); !(got > 0) || math.IsInf(got, 0) || math.IsNaN(got) {
					t.Errorf("%s/%s: Estimate = %v", d.Name, c, got)
				}
			}
		}
	}
}

func TestEstimateUnknownClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewPixel7a().Estimate(denseCost, "npu", nil)
}

func TestGPUWinsDenseCPUWinsIrregularOnMobile(t *testing.T) {
	// The heterogeneity premise of Fig. 1: dense regular work belongs on
	// the GPU; irregular divergent work belongs on big CPU cores —
	// on the mobile (Vulkan) GPUs.
	irregular := core.CostSpec{
		FLOPs: 20e6, Bytes: 6e6, ParallelFraction: 0.95,
		Divergence: 0.85, Irregularity: 0.85, WorkItems: 4096,
	}
	for _, name := range []string{Pixel7a, OnePlus11} {
		d, _ := DeviceByName(name)
		if gd, bd := d.Estimate(denseCost, core.ClassGPU, nil), d.Estimate(denseCost, core.ClassBig, nil); gd >= bd {
			t.Errorf("%s: dense GPU %.3gms !< big %.3gms", name, gd*1e3, bd*1e3)
		}
		if gi, bi := d.Estimate(irregular, core.ClassGPU, nil), d.Estimate(irregular, core.ClassBig, nil); gi <= bi {
			t.Errorf("%s: irregular GPU %.3gms !> big %.3gms", name, gi*1e3, bi*1e3)
		}
	}
}

func TestBigBeatsLittle(t *testing.T) {
	for _, d := range Catalog() {
		if d.PU(core.ClassLittle) == nil {
			continue
		}
		for _, cost := range []core.CostSpec{denseCost, sparseCost} {
			big := d.Estimate(cost, core.ClassBig, nil)
			little := d.Estimate(cost, core.ClassLittle, nil)
			if big >= little {
				t.Errorf("%s: big %.3gms !< little %.3gms", d.Name, big*1e3, little*1e3)
			}
		}
	}
}

func TestMemoryContentionSlowsMemBoundKernels(t *testing.T) {
	d := NewJetson()
	d.Governor = NominalGovernor{} // isolate the bandwidth effect
	iso := d.Estimate(memCost, core.ClassBig, nil)
	heavy := d.Estimate(memCost, core.ClassBig, Env{core.ClassGPU: {MemIntensity: 1}})
	if heavy <= iso {
		t.Errorf("mem-bound kernel unaffected by contention: iso %.3g heavy %.3g", iso, heavy)
	}
	// Compute-bound kernels should barely move without a governor effect.
	cb := core.CostSpec{FLOPs: 50e6, Bytes: 1e4, ParallelFraction: 0.99, WorkItems: 1 << 16}
	isoC := d.Estimate(cb, core.ClassBig, nil)
	heavyC := d.Estimate(cb, core.ClassBig, Env{core.ClassGPU: {MemIntensity: 1}})
	if rel := heavyC / isoC; rel > 1.05 {
		t.Errorf("compute-bound kernel slowed %.2fx by pure BW contention", rel)
	}
}

func TestGovernorInterpolation(t *testing.T) {
	g := &DVFSGovernor{NumClasses: 4, LoadedMult: map[core.PUClass]float64{"big": 0.7}}
	if got := g.Multiplier("big", nil); got != 1 {
		t.Errorf("idle multiplier = %v", got)
	}
	if got := g.Multiplier("big", []core.PUClass{"a", "b", "c"}); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("full-load multiplier = %v, want 0.7", got)
	}
	if got := g.Multiplier("big", []core.PUClass{"a"}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("1/3-load multiplier = %v, want 0.9", got)
	}
	// Unknown class and degenerate sizes stay nominal.
	if g.Multiplier("gpu", []core.PUClass{"a"}) != 1 {
		t.Error("unlisted class should be 1.0")
	}
	one := &DVFSGovernor{NumClasses: 1, LoadedMult: map[core.PUClass]float64{"x": 0.5}}
	if one.Multiplier("x", nil) != 1 {
		t.Error("single-class device should be 1.0")
	}
	// Oversized busy set clamps.
	if got := g.Multiplier("big", []core.PUClass{"a", "b", "c", "d", "e"}); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("clamped multiplier = %v", got)
	}
}

func TestPixelGPUBoostsUnderLoad(t *testing.T) {
	// Sec. 5.3: mobile GPUs speed up under heavy CPU load. A
	// compute-bound GPU kernel must get *faster* in the heavy env.
	d := NewPixel7a()
	cb := core.CostSpec{FLOPs: 100e6, Bytes: 1e5, ParallelFraction: 0.999, WorkItems: 1 << 18}
	iso := d.Estimate(cb, core.ClassGPU, nil)
	heavy := d.Estimate(cb, core.ClassGPU, d.HeavyEnv(cb, core.ClassGPU))
	if heavy >= iso {
		t.Errorf("Pixel GPU did not boost: iso %.3gms heavy %.3gms", iso*1e3, heavy*1e3)
	}
}

func TestOnePlusLittleBoostsUnderLoad(t *testing.T) {
	d := NewOnePlus11()
	cb := core.CostSpec{FLOPs: 10e6, Bytes: 1e5, ParallelFraction: 0.99, WorkItems: 1 << 14}
	iso := d.Estimate(cb, core.ClassLittle, nil)
	heavy := d.Estimate(cb, core.ClassLittle, d.HeavyEnv(cb, core.ClassLittle))
	if heavy >= iso {
		t.Errorf("OnePlus little did not boost: iso %.3gms heavy %.3gms", iso*1e3, heavy*1e3)
	}
}

func TestJetsonEverythingSlowsUnderLoad(t *testing.T) {
	// The Jetson has no boost quirks: heavy co-location must cost time on
	// both classes (Fig. 7, right columns).
	for _, name := range []string{Jetson, JetsonLP} {
		d, _ := DeviceByName(name)
		for _, c := range d.Classes() {
			iso := d.Estimate(sparseCost, c, nil)
			heavy := d.Estimate(sparseCost, c, d.HeavyEnv(sparseCost, c))
			if heavy <= iso {
				t.Errorf("%s/%s: no slowdown under load (iso %.3g, heavy %.3g)", name, c, iso, heavy)
			}
		}
	}
}

func TestIntensityBounds(t *testing.T) {
	for _, d := range Catalog() {
		for _, c := range d.Classes() {
			for _, cost := range []core.CostSpec{denseCost, sparseCost, memCost} {
				got := d.Intensity(cost, c)
				if got < 0 || got > 1 {
					t.Errorf("%s/%s: intensity %v outside [0,1]", d.Name, c, got)
				}
			}
			if d.Intensity(core.CostSpec{FLOPs: 1e6}, c) != 0 {
				t.Errorf("%s/%s: zero-bytes kernel should have intensity 0", d.Name, c)
			}
		}
	}
	// Mem-bound kernels must have higher intensity than compute-bound.
	d := NewPixel7a()
	if d.Intensity(memCost, core.ClassBig) <= d.Intensity(denseCost, core.ClassBig) {
		t.Error("intensity ordering wrong")
	}
}

func TestHeavyEnvExcludesMeasuring(t *testing.T) {
	d := NewPixel7a()
	env := d.HeavyEnv(denseCost, core.ClassBig)
	if _, ok := env[core.ClassBig]; ok {
		t.Error("heavy env contains the measuring PU")
	}
	if len(env) != 3 {
		t.Errorf("heavy env size = %d, want 3", len(env))
	}
}

func TestSampleNoiseDeterministicAndCentered(t *testing.T) {
	d := NewPixel7a()
	rng1 := rand.New(rand.NewSource(1))
	rng2 := rand.New(rand.NewSource(1))
	a := d.Sample(denseCost, core.ClassBig, nil, rng1)
	b := d.Sample(denseCost, core.ClassBig, nil, rng2)
	if a != b {
		t.Error("same seed must give same sample")
	}
	// Mean of many samples should approach the estimate (lognormal bias
	// is ~sigma^2/2, well under the tolerance here).
	est := d.Estimate(denseCost, core.ClassBig, nil)
	rng := rand.New(rand.NewSource(7))
	sum := 0.0
	const n = 4000
	for i := 0; i < n; i++ {
		sum += d.Sample(denseCost, core.ClassBig, nil, rng)
	}
	mean := sum / n
	if math.Abs(mean-est)/est > 0.02 {
		t.Errorf("sample mean %.4g vs estimate %.4g", mean, est)
	}
	// Nil rng must be allowed (no noise).
	if got := d.Sample(denseCost, core.ClassBig, nil, nil); got != est {
		t.Error("nil rng should return the raw estimate")
	}
}

func TestOccupancyPenalizesTinyGPUKernels(t *testing.T) {
	d := NewJetson()
	small := core.CostSpec{FLOPs: 1e6, Bytes: 1e4, ParallelFraction: 0.99, WorkItems: 64}
	big := small
	big.WorkItems = 1 << 20
	ts := d.Estimate(small, core.ClassGPU, nil)
	tb := d.Estimate(big, core.ClassGPU, nil)
	if ts <= tb {
		t.Errorf("low-occupancy kernel not penalized: small %.3g big %.3g", ts, tb)
	}
}

func TestLaunchOverheadFloorsGPUTime(t *testing.T) {
	d := NewPixel7a()
	nothing := core.CostSpec{FLOPs: 1, Bytes: 0, ParallelFraction: 0, WorkItems: 1}
	if got := d.Estimate(nothing, core.ClassGPU, nil); got < d.PU(core.ClassGPU).LaunchOverheadSec {
		t.Errorf("GPU time %.3g below launch overhead", got)
	}
}

func TestSharedLLCPenaltyOnlyUnderLoad(t *testing.T) {
	d := NewJetson()
	d.Governor = NominalGovernor{}
	irr := core.CostSpec{FLOPs: 10e6, Bytes: 1e5, ParallelFraction: 0.95, Irregularity: 1, WorkItems: 4096}
	iso := d.Estimate(irr, core.ClassBig, nil)
	heavy := d.Estimate(irr, core.ClassBig, Env{core.ClassGPU: {MemIntensity: 0}})
	if heavy <= iso {
		t.Error("shared-LLC penalty missing under co-location")
	}
	// Regular kernels are immune to the LLC effect.
	reg := core.CostSpec{FLOPs: 10e6, Bytes: 1e5, ParallelFraction: 0.95, Irregularity: 0, WorkItems: 4096}
	isoR := d.Estimate(reg, core.ClassBig, nil)
	heavyR := d.Estimate(reg, core.ClassBig, Env{core.ClassGPU: {MemIntensity: 0}})
	if math.Abs(heavyR-isoR)/isoR > 1e-9 {
		t.Error("regular kernel hit by LLC penalty")
	}
}

func TestEnvBusyClassesDeterministic(t *testing.T) {
	e := Env{"gpu": {}, "big": {}, "little": {}}
	got := e.BusyClasses()
	want := []core.PUClass{"big", "gpu", "little"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BusyClasses = %v, want %v", got, want)
		}
	}
}

func TestPowerModel(t *testing.T) {
	d := NewJetson()
	// Idle draw is independent of mult; busy exceeds idle; boost is
	// superlinear.
	if d.Power(core.ClassBig, 0.5, false) != d.Power(core.ClassBig, 2, false) {
		t.Error("idle power should ignore the multiplier")
	}
	idle := d.Power(core.ClassBig, 1, false)
	busy := d.Power(core.ClassBig, 1, true)
	if busy <= idle {
		t.Errorf("busy %v !> idle %v", busy, idle)
	}
	boosted := d.Power(core.ClassBig, 1.2, true)
	want := idle + (busy-idle)*1.2*1.2*1.2
	if math.Abs(boosted-want) > 1e-9 {
		t.Errorf("cubic scaling broken: %v vs %v", boosted, want)
	}
	// mult <= 0 defends as nominal.
	if d.Power(core.ClassBig, 0, true) != busy {
		t.Error("zero multiplier should read as nominal")
	}
	if d.Power("npu", 1, true) != 0 {
		t.Error("unknown class should draw nothing")
	}
}

func TestTDPPlausible(t *testing.T) {
	// The Jetson's modes are specified at 25 W and 7 W; the model should
	// sit in those neighborhoods (within 2x).
	j := NewJetson().TDPWatts()
	if j < 12 || j > 50 {
		t.Errorf("Jetson TDP %v W implausible for the 25 W mode", j)
	}
	lp := NewJetsonLP().TDPWatts()
	if lp < 3.5 || lp > 14 {
		t.Errorf("Jetson-LP TDP %v W implausible for the 7 W mode", lp)
	}
	if lp >= j {
		t.Error("LP mode should draw less than the full mode")
	}
	// Phones stay in single-digit watts.
	for _, d := range []*Device{NewPixel7a(), NewOnePlus11()} {
		if w := d.TDPWatts(); w < 4 || w > 16 {
			t.Errorf("%s TDP %v W implausible", d.Name, w)
		}
	}
}

// Property tests on the performance model's basic sanity: more work
// never takes less time, and boosting the clock never slows a kernel.
func TestEstimateMonotoneInWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Catalog()[rng.Intn(4)]
		classes := d.Classes()
		c := classes[rng.Intn(len(classes))]
		cost := core.CostSpec{
			FLOPs: 1e5 + rng.Float64()*1e8, Bytes: rng.Float64() * 1e7,
			ParallelFraction: 0.5 + rng.Float64()*0.5,
			Divergence:       rng.Float64(), Irregularity: rng.Float64(),
			WorkItems: 1 + rng.Float64()*1e6,
		}
		bigger := cost
		bigger.FLOPs *= 1 + rng.Float64()*3
		bigger.Bytes *= 1 + rng.Float64()*3
		return d.Estimate(bigger, c, nil) >= d.Estimate(cost, c, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateMonotoneInPenalties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Catalog()[rng.Intn(4)]
		classes := d.Classes()
		c := classes[rng.Intn(len(classes))]
		cost := core.CostSpec{
			FLOPs: 1e6 + rng.Float64()*1e8, Bytes: rng.Float64() * 1e6,
			ParallelFraction: 0.9, Divergence: rng.Float64() * 0.5,
			Irregularity: rng.Float64() * 0.5, WorkItems: 1e5,
		}
		worse := cost
		worse.Divergence = cost.Divergence + rng.Float64()*0.5
		worse.Irregularity = cost.Irregularity + rng.Float64()*0.5
		return d.Estimate(worse, c, nil) >= d.Estimate(cost, c, nil)-1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMoreInterferersNeverSpeedUpJetson(t *testing.T) {
	// On a boost-free device, adding interferers is monotone harmful.
	d := NewJetson()
	iso := d.Estimate(sparseCost, core.ClassBig, nil)
	one := d.Estimate(sparseCost, core.ClassBig, Env{core.ClassGPU: {MemIntensity: 0.5}})
	if one < iso {
		t.Errorf("one interferer sped up the Jetson CPU: %v < %v", one, iso)
	}
}

// cpuClasses returns d's CPU clusters, in catalog order.
func cpuClasses(d *Device) []core.PUClass {
	var out []core.PUClass
	for i := range d.PUs {
		if d.PUs[i].Kind == core.KindCPU {
			out = append(out, d.PUs[i].Class)
		}
	}
	return out
}
