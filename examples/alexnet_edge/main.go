// AlexNet at the edge: schedules dense and sparse CNN inference across
// every catalog device and contrasts the three optimization strategies,
// showing where the isolated-table model (prior work) picks badly and
// the interference-aware model does not.
//
//	go run ./examples/alexnet_edge
package main

import (
	"context"
	"fmt"
	"log"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

func main() {
	apps := []*bt.Application{
		btapps.AlexNetDense(),
		btapps.AlexNetSparseBatch(2), // small batch keeps the demo snappy
	}
	strategies := []bt.Strategy{
		bt.StrategyBetterTogether,
		bt.StrategyLatencyOnly,
		bt.StrategyIsolated,
	}

	for _, app := range apps {
		fmt.Printf("=== %s ===\n", app.Name)
		fmt.Printf("%-14s %-24s %12s %12s %9s\n",
			"device", "strategy", "pred (ms)", "meas (ms)", "err")
		for _, dev := range bt.Catalog() {
			tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 3})
			opt := bt.NewOptimizer(app, dev, tabs)
			for _, strat := range strategies {
				cands := opt.Candidates(strat)
				if len(cands) == 0 {
					log.Fatalf("no candidates for %s on %s", app.Name, dev.Name)
				}
				top := cands[0]
				plan, err := bt.NewPlan(app, dev, top.Schedule)
				if err != nil {
					log.Fatal(err)
				}
				r := bt.SimEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 30, Warmup: 5, Seed: 3})
				errPct := (r.PerTask - top.Predicted) / top.Predicted * 100
				fmt.Printf("%-14s %-24s %12.3f %12.3f %+8.1f%%\n",
					dev.Name, strat, top.Predicted*1e3, r.PerTask*1e3, errPct)
			}
		}
		fmt.Println()
	}

	// Classify a batch for real with the selected sparse schedule on the
	// Jetson: the pipeline is not just a cost model — it computes.
	app := btapps.AlexNetSparseBatch(2)
	dev, _ := bt.DeviceByName("jetson")
	sch, err := bt.AutoSchedule(app, dev)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := bt.NewPlan(app, dev, sch)
	if err != nil {
		log.Fatal(err)
	}
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 8, Warmup: 0})
	fmt.Printf("real sparse inference on %s with %s: %d batches classified, %.2f ms/batch wall\n",
		dev.Label, sch, len(r.Completions), r.PerTask*1e3)
}
