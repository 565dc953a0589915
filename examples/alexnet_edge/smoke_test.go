package main

import (
	"context"
	"testing"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// TestAlexNetEdgeStrategies checks the example's strategy comparison
// produces candidates under every strategy on one device, and that the
// selected sparse schedule classifies batches for real.
func TestAlexNetEdgeStrategies(t *testing.T) {
	app := btapps.AlexNetSparseBatch(1)
	dev, err := bt.DeviceByName("jetson")
	if err != nil {
		t.Fatal(err)
	}
	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 3})
	opt := bt.NewOptimizer(app, dev, tabs)
	for _, strat := range []bt.Strategy{
		bt.StrategyBetterTogether, bt.StrategyLatencyOnly, bt.StrategyIsolated,
	} {
		cands := opt.Candidates(strat)
		if len(cands) == 0 {
			t.Fatalf("strategy %v produced no candidates", strat)
		}
		if cands[0].Predicted <= 0 {
			t.Fatalf("strategy %v: non-positive prediction %v", strat, cands[0].Predicted)
		}
		plan, err := bt.NewPlan(app, dev, cands[0].Schedule)
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		if r := (bt.SimEngine{}).Run(context.Background(), plan, bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 3}); r.PerTask <= 0 {
			t.Fatalf("strategy %v: simulated per-task %v", strat, r.PerTask)
		}
	}

	// Real sparse inference, as in the example's closing step.
	sch, err := bt.AutoSchedule(app, dev)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bt.NewPlan(app, dev, sch)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 3
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: tasks, Warmup: 0})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Completions) != tasks {
		t.Fatalf("classified %d batches, want %d", len(r.Completions), tasks)
	}
}
