package main

import (
	"context"
	"testing"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// TestOctreeMappingEndToEnd exercises the example's full path on one
// device with a small frame: profile, optimize, then run the winning
// schedule for real and check every frame completes.
func TestOctreeMappingEndToEnd(t *testing.T) {
	app, err := btapps.OctreeSized(4096, "surface")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}

	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 7})
	if len(tabs.Heavy.Stages) != len(app.Stages) {
		t.Fatalf("profile covers %d stages, want %d", len(tabs.Heavy.Stages), len(app.Stages))
	}
	for i, row := range tabs.Heavy.Latency {
		for j, lat := range row {
			if lat <= 0 {
				t.Fatalf("stage %d PU %d: non-positive profiled latency %v", i, j, lat)
			}
		}
	}

	opt := bt.NewOptimizer(app, dev, tabs)
	opts := bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 7}
	_, _, best, err := opt.Optimize(bt.StrategyBetterTogether, opts)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := bt.NewPlan(app, dev, best.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 3
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: tasks, Warmup: 1})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Completions) != tasks {
		t.Fatalf("built %d octrees, want %d", len(r.Completions), tasks)
	}
	if r.PerTask <= 0 {
		t.Fatalf("wall time per frame = %v", r.PerTask)
	}
}
