// Octree mapping: the paper's motivating scenario (Fig. 1). Profiles the
// 7-stage Karras octree pipeline on a phone SoC, shows how differently
// the stages behave per PU class, and demonstrates that the
// interference-aware heterogeneous schedule beats both homogeneous
// deployments — then verifies the schedule functionally by running the
// real kernels and validating the constructed octree.
//
//	go run ./examples/octree_mapping
package main

import (
	"context"
	"fmt"
	"log"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

func main() {
	// A smaller frame keeps the real-engine validation quick; the
	// scheduling story is identical at any size.
	app, err := btapps.OctreeSized(16384, "surface")
	if err != nil {
		log.Fatal(err)
	}

	for _, devName := range []string{"pixel7a", "jetson"} {
		dev, err := bt.DeviceByName(devName)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", dev.Label)

		tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 7})
		fmt.Println("interference-heavy stage profile (ms):")
		fmt.Printf("  %-14s", "stage")
		for _, pu := range tabs.Heavy.PUs {
			fmt.Printf(" %10s", pu)
		}
		fmt.Println()
		for i, name := range tabs.Heavy.Stages {
			fmt.Printf("  %-14s", name)
			for j := range tabs.Heavy.PUs {
				fmt.Printf(" %10.3f", tabs.Heavy.Latency[i][j]*1e3)
			}
			fmt.Println()
		}

		opt := bt.NewOptimizer(app, dev, tabs)
		opts := bt.RunOptions{Tasks: 30, Warmup: 5, Seed: 7}
		_, tune, best, err := opt.Optimize(bt.StrategyBetterTogether, opts)
		if err != nil {
			log.Fatal(err)
		}
		btLat := tune.Measured[tune.BestIndex]

		measure := func(s bt.Schedule) float64 {
			plan, err := bt.NewPlan(app, dev, s)
			if err != nil {
				log.Fatal(err)
			}
			return bt.SimEngine{}.Run(context.Background(), plan, opts).PerTask
		}
		gpu := measure(bt.NewUniformSchedule(len(app.Stages), bt.ClassGPU))
		cpu := measure(bt.NewUniformSchedule(len(app.Stages), bt.ClassBig))

		fmt.Printf("\n  BetterTogether %-40s %8.3f ms/task\n", best.Schedule.String(), btLat*1e3)
		fmt.Printf("  all-GPU        %-40s %8.3f ms/task (%.2fx slower)\n", "", gpu*1e3, gpu/btLat)
		fmt.Printf("  all-big-CPU    %-40s %8.3f ms/task (%.2fx slower)\n\n", "", cpu*1e3, cpu/btLat)

		// Functional check: run the chosen schedule for real and verify
		// completions flow through the concurrent pipeline.
		plan, err := bt.NewPlan(app, dev, best.Schedule)
		if err != nil {
			log.Fatal(err)
		}
		r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: 10, Warmup: 2})
		fmt.Printf("  real run: %d octrees built, %.2f ms/frame wall time\n\n",
			len(r.Completions), r.PerTask*1e3)
	}
}
