package pipeline

import (
	"context"
	"errors"
	"math"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

func TestByNameResolvesEngines(t *testing.T) {
	for _, name := range []string{"sim", "real"} {
		eng, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if eng.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, eng.Name())
		}
	}
	if _, err := ByName("warp"); err == nil {
		t.Error("ByName accepted unknown engine")
	}
}

func TestRealEngineRunsKernels(t *testing.T) {
	app, runs := testApp(3, 1e5)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "gpu"}})
	r := RealEngine{}.Run(context.Background(), p, Options{Tasks: 8, Warmup: 1})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Completions) != 8 {
		t.Fatalf("completions = %d, want 8", len(r.Completions))
	}
	if got, want := runs.Load(), int64(3*(8+1)); got != want {
		t.Errorf("kernel runs = %d, want %d", got, want)
	}
}

// TestEnginePreCanceledContext: both engines must refuse a context that
// is already canceled at entry without starting the run.
func TestEnginePreCanceledContext(t *testing.T) {
	app, runs := testApp(2, 1e5)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "gpu"}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{SimEngine{}, RealEngine{}} {
		r := eng.Run(ctx, p, Options{Tasks: 5})
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: Err = %v, want context.Canceled", eng.Name(), r.Err)
		}
		if len(r.Completions) != 0 {
			t.Errorf("%s: run started despite canceled ctx", eng.Name())
		}
	}
	if runs.Load() != 0 {
		t.Errorf("kernels ran despite canceled ctx: %d", runs.Load())
	}
}

// TestEngineRejectsInvalidPlan: validation lives in the shared driver,
// so a broken plan is rejected identically by both engines.
func TestEngineRejectsInvalidPlan(t *testing.T) {
	for _, eng := range []Engine{SimEngine{}, RealEngine{}} {
		r := eng.Run(context.Background(), &Plan{}, Options{Tasks: 5})
		if r.Err == nil {
			t.Errorf("%s: empty plan accepted", eng.Name())
		}
	}
}

// TestGPUPoolWidthOption: the option overrides the device's GPU lane
// count in the resolved pool width (visible through the metrics
// collector, which the shared driver labels for both engines).
func TestGPUPoolWidthOption(t *testing.T) {
	app, _ := testApp(2, 1e6)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"gpu", "gpu"}})
	opts := Options{Tasks: 6, GPUPoolWidth: 3}
	opts.Metrics = NewMetricsFor(p, opts)
	r := SimEngine{}.Run(context.Background(), p, opts)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := opts.Metrics.Pool(0).Width; got != 3 {
		t.Errorf("gpu pool width = %d, want GPUPoolWidth override 3", got)
	}
}

// TestBaseEnvSlowsSim: an external interference environment must inflate
// the simulated service times relative to an isolated run.
func TestBaseEnvSlowsSim(t *testing.T) {
	app, _ := testApp(3, 1e8)
	dev := soc.NewPixel7a()
	p := mustPlan(t, app, dev, core.Schedule{Assign: []core.PUClass{"big", "big", "big"}})
	base := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 2, Seed: 7})
	env := soc.Env{}
	for _, pu := range dev.PUs {
		env.Add(pu.Class, soc.Load{MemIntensity: 1})
	}
	loaded := SimEngine{}.Run(context.Background(), p, Options{Tasks: 20, Warmup: 2, Seed: 7, BaseEnv: env})
	if !(loaded.PerTask > base.PerTask) || math.IsNaN(loaded.PerTask) {
		t.Errorf("BaseEnv did not slow the run: isolated %.6f, loaded %.6f",
			base.PerTask, loaded.PerTask)
	}
}
