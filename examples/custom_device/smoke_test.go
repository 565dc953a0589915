package main

import (
	"context"
	"testing"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// TestEdgeBoardSchedules checks the custom device definition is valid
// and the optimizer can specialize the octree pipeline for it end to
// end, exactly as the example does (with a smaller frame for speed).
func TestEdgeBoardSchedules(t *testing.T) {
	dev := edgeBoard()
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}
	app, err := btapps.OctreeSized(4096, "clustered")
	if err != nil {
		t.Fatal(err)
	}

	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 11})
	opt := bt.NewOptimizer(app, dev, tabs)
	opts := bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 11}
	cands, tune, best, err := opt.Optimize(bt.StrategyBetterTogether, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	if tune.BestIndex < 0 || tune.BestIndex >= len(cands) {
		t.Fatalf("best index %d out of range", tune.BestIndex)
	}
	if best.Schedule.String() == "" {
		t.Fatal("empty winning schedule")
	}

	// The chosen schedule must actually run on the custom board.
	plan, err := bt.NewPlan(app, dev, best.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if r := (bt.SimEngine{}).Run(context.Background(), plan, opts); r.PerTask <= 0 {
		t.Fatalf("simulated per-task latency = %v", r.PerTask)
	}
}

// TestAggressiveThermalGovernor pins the custom governor's contract:
// throttling grows with the number of busy sibling classes.
func TestAggressiveThermalGovernor(t *testing.T) {
	g := aggressiveThermal{}
	if m := g.Multiplier(bt.ClassBig, nil); m != 1 {
		t.Fatalf("idle multiplier = %v", m)
	}
	one := g.Multiplier(bt.ClassBig, []bt.PUClass{bt.ClassGPU})
	two := g.Multiplier(bt.ClassBig, []bt.PUClass{bt.ClassGPU, bt.ClassLittle})
	if !(two < one && one < 1) {
		t.Fatalf("multipliers not monotone: 1 busy → %v, 2 busy → %v", one, two)
	}
}
