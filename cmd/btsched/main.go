// Command btsched runs the BT-Optimizer for one application-device pair:
// it profiles, generates the top-K candidate schedules under the chosen
// strategy, autotunes them on the (simulated) device, and prints the
// ranking with predictions and measurements.
//
// Usage:
//
//	btsched -app octree -device pixel7a
//	btsched -app alexnet-sparse -device jetson -strategy isolated -k 10
package main

import (
	"flag"
	"fmt"

	"bettertogether/internal/cli"
	"bettertogether/internal/report"
	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

func main() {
	appName := flag.String("app", "octree", "application: alexnet-dense, alexnet-sparse, octree, vision")
	devName := flag.String("device", "pixel7a", "device: pixel7a, oneplus11, jetson, jetson-lp")
	strategy := flag.String("strategy", "bt", "optimization strategy: bt, latency, isolated")
	k := flag.Int("k", 20, "candidate pool size")
	tasks := flag.Int("tasks", 30, "tasks per autotuning run")
	seed := flag.Int64("seed", 1, "seed for profiling and autotuning noise")
	tablePrefix := flag.String("tables", "", "load profiling tables from <prefix>-isolated.json / <prefix>-heavy.json instead of re-profiling (btprofile -o writes them)")
	objective := flag.String("objective", "latency", "autotuning objective: latency, energy, edp")
	flag.Parse()
	fatalIf(cli.CheckCount("k", *k, 1))
	fatalIf(cli.CheckCount("tasks", *tasks, 1))

	app, err := btapps.ByName(*appName)
	fatalIf(err)
	dev, err := bt.DeviceByName(*devName)
	fatalIf(err)

	var strat bt.Strategy
	switch *strategy {
	case "bt":
		strat = bt.StrategyBetterTogether
	case "latency":
		strat = bt.StrategyLatencyOnly
	case "isolated":
		strat = bt.StrategyIsolated
	default:
		fatalIf(fmt.Errorf("unknown strategy %q", *strategy))
	}

	var tabs bt.Tables
	if *tablePrefix != "" {
		iso, err := bt.LoadTable(*tablePrefix + "-isolated.json")
		fatalIf(err)
		heavy, err := bt.LoadTable(*tablePrefix + "-heavy.json")
		fatalIf(err)
		tabs = bt.Tables{Isolated: iso, Heavy: heavy}
	} else {
		tabs = bt.ProfileBoth(app, dev, bt.ProfileConfig{Seed: *seed})
	}
	opt := bt.NewOptimizer(app, dev, tabs)
	opt.K = *k
	switch *objective {
	case "latency":
		opt.Objective = bt.ObjectiveLatency
	case "energy":
		opt.Objective = bt.ObjectiveEnergy
	case "edp":
		opt.Objective = bt.ObjectiveEDP
	default:
		fatalIf(fmt.Errorf("unknown objective %q", *objective))
	}
	cands, tune, best, err := opt.Optimize(strat, bt.RunOptions{Tasks: *tasks, Warmup: 5, Seed: *seed})
	fatalIf(err)

	t := report.NewTable(
		fmt.Sprintf("%s on %s — strategy %s, objective %s", app.Name, dev.Label, strat, opt.Objective),
		"#", "Predicted (ms)", "Measured (ms)", "Energy (J)", "Gap (ms)", "Schedule")
	for i, c := range cands {
		mark := ""
		if i == tune.BestIndex {
			mark = " *"
		}
		t.AddRow(fmt.Sprintf("%d%s", i+1, mark), report.Ms(c.Predicted),
			report.Ms(tune.Measured[i]), fmt.Sprintf("%.4f", tune.Energy[i]),
			report.Ms(c.Gap), c.Schedule.String())
	}
	fmt.Print(t.Render())
	fmt.Printf("\nselected schedule: %s (measured %s ms)\n",
		best.Schedule, report.Ms(tune.Measured[tune.BestIndex]))
}

func fatalIf(err error) { cli.FatalIf("btsched", err) }
