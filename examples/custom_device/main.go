// Custom device: BetterTogether's portability story (Sec. 1). The
// framework is not tied to the four catalog SoCs — this example defines
// a hypothetical future edge board with an NPU-ish wide-vector cluster
// and an aggressive thermal governor, then schedules the octree workload
// for it. The optimizer specializes the pipeline to the new device with
// no changes to the application.
//
//	go run ./examples/custom_device
package main

import (
	"context"
	"fmt"
	"log"

	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// edgeBoard models a made-up "EdgeBoard X1": two fast cores, four
// efficiency cores, and a small GPU, behind a thermally aggressive
// governor that throttles everything under combined load.
func edgeBoard() *bt.Device {
	return &bt.Device{
		Name:  "edgeboard-x1",
		Label: "EdgeBoard X1 (custom)",
		PUs: []bt.PU{
			{
				Class: bt.ClassBig, Kind: 0, /* CPU */
				Cores: 2, CoreIDs: []int{4, 5}, BaseGHz: 2.4,
				EffFlopsPerCycle: 0.35, IrregPenalty: 0.3,
				LaunchOverheadSec: 15e-6, MemBWGBs: 10,
			},
			{
				Class: bt.ClassLittle, Kind: 0,
				Cores: 4, CoreIDs: []int{0, 1, 2, 3}, BaseGHz: 1.5,
				EffFlopsPerCycle: 0.12, IrregPenalty: 0.8,
				LaunchOverheadSec: 20e-6, MemBWGBs: 6,
			},
			{
				Class: bt.ClassGPU, Kind: 1, /* GPU */
				Cores: 4, Lanes: 32, BaseGHz: 0.8,
				EffFlopsPerCycle: 1.0, ScalarFlopsPerCycle: 0.12,
				IrregPenalty: 2.2, DivergencePenalty: 3.0,
				LaunchOverheadSec: 80e-6, MemBWGBs: 14,
				OccupancyItemsPerLane: 4,
			},
		},
		DRAMBWGBs:  17,
		Governor:   &aggressiveThermal{},
		NoiseSigma: 0.04,
	}
}

// aggressiveThermal throttles every PU by 8% per other busy class — a
// custom Governor implementation plugged straight into the simulator.
type aggressiveThermal struct{}

func (aggressiveThermal) Multiplier(target bt.PUClass, busyOthers []bt.PUClass) float64 {
	return 1 - 0.08*float64(len(busyOthers))
}

func main() {
	dev := edgeBoard()
	if err := dev.Validate(); err != nil {
		log.Fatal(err)
	}
	app, err := btapps.OctreeSized(32768, "clustered")
	if err != nil {
		log.Fatal(err)
	}

	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: 11})
	opt := bt.NewOptimizer(app, dev, tabs)
	opts := bt.RunOptions{Tasks: 30, Warmup: 5, Seed: 11}
	cands, tune, best, err := opt.Optimize(bt.StrategyBetterTogether, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduling %s on %s\n", app.Name, dev.Label)
	fmt.Printf("top candidates (of %d):\n", len(cands))
	for i := 0; i < len(cands) && i < 5; i++ {
		mark := " "
		if i == tune.BestIndex {
			mark = "*"
		}
		fmt.Printf(" %s #%d pred %7.3f ms  meas %7.3f ms  %s\n",
			mark, i+1, cands[i].Predicted*1e3, tune.Measured[i]*1e3, cands[i].Schedule)
	}

	measure := func(s bt.Schedule) float64 {
		plan, err := bt.NewPlan(app, dev, s)
		if err != nil {
			log.Fatal(err)
		}
		return bt.SimEngine{}.Run(context.Background(), plan, opts).PerTask
	}
	btLat := tune.Measured[tune.BestIndex]
	gpu := measure(bt.NewUniformSchedule(len(app.Stages), bt.ClassGPU))
	cpu := measure(bt.NewUniformSchedule(len(app.Stages), bt.ClassBig))
	fmt.Printf("\nBetterTogether %7.3f ms  vs all-GPU %7.3f ms (%.2fx)  vs all-big %7.3f ms (%.2fx)\n",
		btLat*1e3, gpu*1e3, gpu/btLat, cpu*1e3, cpu/btLat)
	fmt.Printf("chosen schedule: %s\n", best.Schedule)
}
