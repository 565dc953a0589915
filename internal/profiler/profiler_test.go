package profiler

import (
	"math"
	"testing"

	"bettertogether/internal/apps/alexnet"
	"bettertogether/internal/apps/octree"
	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

func TestProfileTableComplete(t *testing.T) {
	app := octree.NewApplication(4096, octree.UniformGen{})
	dev := soc.NewPixel7a()
	tab := Profile(app, dev, core.Isolated, Config{Seed: 1})
	if !tab.Complete() {
		t.Fatal("table incomplete")
	}
	if tab.App != app.Name || tab.Device == "" || tab.Mode != core.Isolated {
		t.Errorf("metadata wrong: %+v", tab)
	}
	if len(tab.Stages) != 7 || len(tab.PUs) != 4 {
		t.Fatalf("shape %dx%d", len(tab.Stages), len(tab.PUs))
	}
	for i := range tab.Stages {
		for j := range tab.PUs {
			if tab.Latency[i][j] <= 0 {
				t.Errorf("entry (%d,%d) = %v", i, j, tab.Latency[i][j])
			}
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	app := alexnet.NewDense(1, 1)
	dev := soc.NewJetson()
	a := Profile(app, dev, core.InterferenceHeavy, Config{Seed: 5})
	b := Profile(app, dev, core.InterferenceHeavy, Config{Seed: 5})
	for i := range a.Latency {
		for j := range a.Latency[i] {
			if a.Latency[i][j] != b.Latency[i][j] {
				t.Fatal("same seed, different tables")
			}
		}
	}
}

func TestRepsReduceNoise(t *testing.T) {
	// Means over 30 reps from two seeds must agree much better than
	// single samples: the point of the paper's repetition protocol.
	app := alexnet.NewDense(1, 1)
	dev := soc.NewPixel7a() // noisiest device
	many1 := Profile(app, dev, core.Isolated, Config{Reps: 30, Seed: 1})
	many2 := Profile(app, dev, core.Isolated, Config{Reps: 30, Seed: 2})
	one1 := Profile(app, dev, core.Isolated, Config{Reps: 1, Seed: 1})
	one2 := Profile(app, dev, core.Isolated, Config{Reps: 1, Seed: 2})
	var devMany, devOne float64
	for i := range many1.Latency {
		for j := range many1.Latency[i] {
			devMany += abs(many1.Latency[i][j]-many2.Latency[i][j]) / many1.Latency[i][j]
			devOne += abs(one1.Latency[i][j]-one2.Latency[i][j]) / one1.Latency[i][j]
		}
	}
	if devMany >= devOne {
		t.Errorf("30-rep tables deviate more (%v) than 1-rep tables (%v)", devMany, devOne)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// countingGovernor counts Multiplier calls through to another governor.
type countingGovernor struct {
	inner soc.Governor
	calls int
}

func (g *countingGovernor) Multiplier(target core.PUClass, busyOthers []core.PUClass) float64 {
	g.calls++
	return g.inner.Multiplier(target, busyOthers)
}

// TestProfileOneMultiplierPerCell pins that the profiler evaluates each
// (stage, class, mode) estimate once and draws only the noise per
// repetition: the governor is asked once per cell whatever Reps is.
func TestProfileOneMultiplierPerCell(t *testing.T) {
	app := octree.NewApplication(4096, octree.UniformGen{})
	for _, reps := range []int{1, 8, 30} {
		for _, base := range []soc.Env{nil, {core.ClassGPU: {MemIntensity: 0.4}, "npu": {MemIntensity: 0.2}}} {
			dev := *soc.NewPixel7a()
			gov := &countingGovernor{inner: dev.Governor}
			dev.Governor = gov
			ProfileBoth(app, &dev, Config{Reps: reps, Seed: 1, BaseEnv: base})
			if want := 2 * len(app.Stages) * len(dev.PUs); gov.calls != want {
				t.Errorf("reps %d, base %v: %d Multiplier calls, want %d", reps, base, gov.calls, want)
			}
		}
	}
}

func TestHeavyDiffersFromIsolated(t *testing.T) {
	app := octree.NewApplication(4096, octree.UniformGen{})
	dev := soc.NewPixel7a()
	tabs := ProfileBoth(app, dev, Config{Seed: 3})
	diff := 0
	for i := range tabs.Heavy.Latency {
		for j := range tabs.Heavy.Latency[i] {
			if abs(tabs.Heavy.Latency[i][j]-tabs.Isolated.Latency[i][j])/tabs.Isolated.Latency[i][j] > 0.05 {
				diff++
			}
		}
	}
	if diff < 5 {
		t.Errorf("only %d entries differ >5%% between modes; interference not captured", diff)
	}
}

func TestInterferenceRatiosDirections(t *testing.T) {
	// Fig. 7 directions: on the Pixel, CPU clusters slow down under load
	// (>1) and the GPU speeds up (<1); on the Jetson everything slows.
	app := octree.NewApplication(4096, octree.UniformGen{})

	pixel := ProfileBoth(app, soc.NewPixel7a(), Config{Seed: 7})
	rp := InterferenceRatios(pixel)
	for _, c := range []core.PUClass{core.ClassBig, core.ClassMedium, core.ClassLittle} {
		if rp[c] <= 1.0 {
			t.Errorf("pixel %s ratio %v, want > 1", c, rp[c])
		}
	}
	if rp[core.ClassGPU] >= 1.0 {
		t.Errorf("pixel gpu ratio %v, want < 1 (firmware boost)", rp[core.ClassGPU])
	}

	oneplus := ProfileBoth(app, soc.NewOnePlus11(), Config{Seed: 7})
	ro := InterferenceRatios(oneplus)
	if ro[core.ClassLittle] >= 1.0 {
		t.Errorf("oneplus little ratio %v, want < 1 (A510 boost)", ro[core.ClassLittle])
	}
	if ro[core.ClassGPU] >= 1.0 {
		t.Errorf("oneplus gpu ratio %v, want < 1", ro[core.ClassGPU])
	}

	jetson := ProfileBoth(app, soc.NewJetson(), Config{Seed: 7})
	rj := InterferenceRatios(jetson)
	for c, r := range rj {
		if r <= 1.0 {
			t.Errorf("jetson %s ratio %v, want > 1 (no boost quirks)", c, r)
		}
	}
}

func TestMaxStageRatio(t *testing.T) {
	app := octree.NewApplication(4096, octree.UniformGen{})
	tabs := ProfileBoth(app, soc.NewPixel7a(), Config{Seed: 9})
	stage, pu, ratio := MaxStageRatio(tabs)
	if stage == "" || pu == "" {
		t.Fatal("no max found")
	}
	// Sec. 3.2 reports differences up to 2.25× on the Pixel; our model
	// must show a material stage-level effect (well above the noise
	// floor).
	if ratio < 1.2 {
		t.Errorf("max stage ratio %v, want material interference (> 1.2)", ratio)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Reps != DefaultReps {
		t.Errorf("default reps = %d", c.Reps)
	}
}

func TestInterferenceRatiosOmitsUnmeasuredClass(t *testing.T) {
	// Regression: a PU class with no stage at a positive isolated latency
	// used to produce NaN (mean of an empty slice) that flowed silently
	// into Fig. 7. Such a class must be omitted from the map entirely.
	stages := []string{"s0", "s1"}
	pus := []core.PUClass{core.ClassBig, core.ClassGPU}
	iso := core.NewProfileTable("app", "dev", core.Isolated, stages, pus)
	heavy := core.NewProfileTable("app", "dev", core.InterferenceHeavy, stages, pus)
	// Big is fully measured; the GPU column stays at its NaN/zero
	// initialization (one entry explicitly zeroed, one left NaN).
	iso.Set(0, core.ClassBig, 1.0)
	iso.Set(1, core.ClassBig, 2.0)
	iso.Set(0, core.ClassGPU, 0)
	heavy.Set(0, core.ClassBig, 1.5)
	heavy.Set(1, core.ClassBig, 4.0)
	heavy.Set(0, core.ClassGPU, 3.0)
	heavy.Set(1, core.ClassGPU, 3.0)

	out := InterferenceRatios(Tables{Isolated: iso, Heavy: heavy})
	if _, ok := out[core.ClassGPU]; ok {
		t.Errorf("GPU class reported despite no measurable stage: %v", out[core.ClassGPU])
	}
	got, ok := out[core.ClassBig]
	if !ok {
		t.Fatal("big class missing")
	}
	if want := (1.5/1.0 + 4.0/2.0) / 2; math.Abs(got-want) > 1e-12 {
		t.Errorf("big ratio %v, want %v", got, want)
	}
	for pu, r := range out {
		if math.IsNaN(r) {
			t.Errorf("NaN ratio for %s", pu)
		}
	}
}

func TestAdjustRescalesTable(t *testing.T) {
	app := octree.NewApplication(4096, octree.UniformGen{})
	dev := soc.NewPixel7a()
	plain := Profile(app, dev, core.Isolated, Config{Seed: 3})
	double := func(stage string, pu core.PUClass, s float64) float64 {
		if stage == app.Stages[0].Name && pu == core.ClassGPU {
			return 2 * s
		}
		return s
	}
	adj := Profile(app, dev, core.Isolated, Config{Seed: 3, Adjust: double})
	for i := range plain.Stages {
		for j, pu := range plain.PUs {
			want := plain.Latency[i][j]
			if i == 0 && pu == core.ClassGPU {
				want *= 2
			}
			if adj.Latency[i][j] != want {
				t.Fatalf("(%d,%s) = %v, want %v", i, pu, adj.Latency[i][j], want)
			}
		}
	}
	// ProfileBoth forwards the adjustment to both modes.
	both := ProfileBoth(app, dev, Config{Seed: 3, Adjust: double})
	if both.Isolated.Latency[0][indexOf(t, both.Isolated.PUs, core.ClassGPU)] != adj.Latency[0][indexOf(t, adj.PUs, core.ClassGPU)] {
		t.Fatal("ProfileBoth dropped Adjust on the isolated table")
	}
	heavyPlain := Profile(app, dev, core.InterferenceHeavy, Config{Seed: 4})
	j := indexOf(t, heavyPlain.PUs, core.ClassGPU)
	if both.Heavy.Latency[0][j] != 2*heavyPlain.Latency[0][j] {
		t.Fatal("ProfileBoth dropped Adjust on the heavy table")
	}
}

func indexOf(t *testing.T, pus []core.PUClass, want core.PUClass) int {
	t.Helper()
	for j, pu := range pus {
		if pu == want {
			return j
		}
	}
	t.Fatalf("class %s not in %v", want, pus)
	return -1
}

func TestComposeChainsLeftToRight(t *testing.T) {
	if Compose() != nil || Compose(nil, nil) != nil {
		t.Fatal("Compose of no adjustments must stay the identity nil")
	}
	addOne := func(_ string, _ core.PUClass, s float64) float64 { return s + 1 }
	timesTen := func(_ string, _ core.PUClass, s float64) float64 { return s * 10 }
	if got := Compose(addOne, timesTen)("s", core.ClassGPU, 1); got != 20 {
		t.Fatalf("Compose(add,mul)(1) = %v, want (1+1)*10 = 20", got)
	}
	if got := Compose(timesTen, addOne)("s", core.ClassGPU, 1); got != 11 {
		t.Fatalf("Compose(mul,add)(1) = %v, want 1*10+1 = 11", got)
	}
	if got := Compose(nil, addOne, nil)("s", core.ClassGPU, 1); got != 2 {
		t.Fatalf("Compose skipping nils = %v, want 2", got)
	}
}
