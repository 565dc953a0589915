package bt_test

import (
	"context"
	"testing"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// tinyApp builds a minimal two-stage application through the public API
// only — the exact surface a downstream user has.
func tinyApp() *bt.Application {
	kern := func(t *bt.TaskObject, par bt.ParallelFor) {
		buf := t.Payload.(*bt.UsmBuffer[float64])
		par(len(buf.Data), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf.Data[i] += 1
			}
		})
	}
	stage := func(name string, div, irr float64) bt.Stage {
		return bt.Stage{
			Name: name, CPU: kern, GPU: kern,
			Cost: bt.CostSpec{FLOPs: 2e6, Bytes: 4e5, ParallelFraction: 0.99,
				Divergence: div, Irregularity: irr, WorkItems: 4096},
		}
	}
	return &bt.Application{
		Name:   "tiny",
		Stages: []bt.Stage{stage("regular", 0.05, 0.05), stage("irregular", 0.8, 0.8)},
		NewTask: func() *bt.TaskObject {
			buf := bt.NewUsmBuffer[float64](4096)
			return bt.NewTaskObject(buf, nil)
		},
	}
}

func TestPublicEndToEnd(t *testing.T) {
	app := tinyApp()
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := bt.AutoSchedule(app, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(len(app.Stages), dev.Classes()); err != nil {
		t.Fatal(err)
	}
	plan, err := bt.NewPlan(app, dev, sch)
	if err != nil {
		t.Fatal(err)
	}
	sim := bt.SimEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 1})
	if sim.PerTask <= 0 || len(sim.Completions) != 10 {
		t.Errorf("sim result %+v", sim)
	}
	real := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 5, Warmup: 1})
	if len(real.Completions) != 5 {
		t.Errorf("real completions %d", len(real.Completions))
	}
}

func TestPublicCatalog(t *testing.T) {
	devs := bt.Catalog()
	if len(devs) != 4 {
		t.Fatalf("catalog size %d", len(devs))
	}
	for _, d := range devs {
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	}
	if _, err := bt.DeviceByName("nexus"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestPublicProfilerAndOptimizer(t *testing.T) {
	app := tinyApp()
	dev, _ := bt.DeviceByName("jetson")
	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 2})
	if !tabs.Isolated.Complete() || !tabs.Heavy.Complete() {
		t.Fatal("incomplete tables")
	}
	iso := bt.Profile(app, dev, bt.Isolated, bt.ProfileConfig{Seed: 2})
	if iso.Get(0, bt.ClassBig) != tabs.Isolated.Get(0, bt.ClassBig) {
		t.Error("Profile and ProfileBoth disagree on the same seed")
	}
	opt := bt.NewOptimizer(app, dev, tabs)
	for _, strat := range []bt.Strategy{
		bt.StrategyBetterTogether, bt.StrategyLatencyOnly, bt.StrategyIsolated,
	} {
		if len(opt.Candidates(strat)) == 0 {
			t.Errorf("strategy %v: no candidates", strat)
		}
	}
}

func TestPublicUniformSchedule(t *testing.T) {
	s := bt.NewUniformSchedule(3, bt.ClassGPU)
	if len(s.Chunks()) != 1 {
		t.Error("uniform schedule malformed")
	}
}

func TestBtappsConstructors(t *testing.T) {
	for _, name := range btapps.Names {
		app, err := btapps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Aliases resolve.
	for _, alias := range []string{"dense", "sparse", "tree", "CIFAR-D"} {
		if _, err := btapps.ByName(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := btapps.ByName("resnet"); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := btapps.OctreeSized(1024, "torus"); err == nil {
		t.Error("unknown distribution accepted")
	}
	for _, dist := range []string{"", "uniform", "clustered", "surface"} {
		app, err := btapps.OctreeSized(1024, dist)
		if err != nil || app.Validate() != nil {
			t.Errorf("distribution %q failed", dist)
		}
	}
	if btapps.AlexNetSparseBatch(2).Validate() != nil {
		t.Error("custom batch failed")
	}
}

func TestBtappsScheduleRoundTrip(t *testing.T) {
	// A ready-made workload must flow through the whole public pipeline.
	app, err := btapps.OctreeSized(2048, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := bt.DeviceByName("oneplus11")
	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 4})
	opt := bt.NewOptimizer(app, dev, tabs)
	cands, tune, best, err := opt.Optimize(bt.StrategyBetterTogether,
		bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || tune.BestIndex < 0 {
		t.Fatal("optimization empty")
	}
	plan, err := bt.NewPlan(app, dev, best.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 3, Warmup: 0})
	if len(r.Completions) != 3 {
		t.Errorf("real run completions %d", len(r.Completions))
	}
}

func TestVisionAppSchedulable(t *testing.T) {
	app, err := btapps.VisionSized(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := bt.DeviceByName("pixel7a")
	sch, err := bt.AutoSchedule(app, dev)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bt.NewPlan(app, dev, sch)
	if err != nil {
		t.Fatal(err)
	}
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 4, Warmup: 1})
	if len(r.Completions) != 4 {
		t.Errorf("vision real run completions %d", len(r.Completions))
	}
	if _, err := btapps.ByName("vision"); err != nil {
		t.Error(err)
	}
}
