package experiments

import (
	"context"
	"fmt"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/report"
	"bettertogether/internal/sched"
	"bettertogether/internal/stats"
)

// EnergyResult quantifies the intro's energy motivation: joules per task
// for the BetterTogether schedule against the homogeneous baselines on
// every combo (extension experiment; the paper does not evaluate
// energy).
type EnergyResult struct {
	Devices, Apps []string
	// BTJ, CPUJ, GPUJ are energy per task in joules.
	BTJ, CPUJ, GPUJ [][]float64
	// GeomeanSavingsVsBest aggregates bestBaselineJ / btJ (>1 means the
	// heterogeneous schedule also saves energy).
	GeomeanSavingsVsBest float64
}

// ExtEnergy measures per-task energy for each strategy.
func (s *Suite) ExtEnergy() (EnergyResult, string, error) {
	res := EnergyResult{}
	for _, d := range s.Devices {
		res.Devices = append(res.Devices, d.Name)
	}
	for _, a := range s.Apps {
		res.Apps = append(res.Apps, a.Name)
	}
	t := report.NewTable("Extension: energy per task (J), lower is better",
		"Device", "App", "BetterTogether", "CPU-only", "GPU-only", "best-base/BT")
	var ratios []float64
	for _, dev := range s.Devices {
		var btRow, cpuRow, gpuRow []float64
		for _, app := range s.Apps {
			tabs := s.Tables(app, dev)
			opt := sched.New(app, dev, tabs)
			opts := pipeline.Options{Tasks: suiteTasks, Warmup: suiteWarmup,
				Seed: seedFor("energy", app.Name, dev.Name)}
			_, tune, best, err := opt.Optimize(sched.BetterTogether, opts)
			if err != nil {
				return res, "", err
			}
			_ = tune
			energyOf := func(sch core.Schedule) (float64, error) {
				plan, err := pipeline.NewPlan(app, dev, sch)
				if err != nil {
					return 0, err
				}
				return simEngine.Run(context.Background(), plan, opts).EnergyPerTaskJ, nil
			}
			btJ, err := energyOf(best.Schedule)
			if err != nil {
				return res, "", err
			}
			cpuJ, err := energyOf(core.NewUniformSchedule(len(app.Stages), core.ClassBig))
			if err != nil {
				return res, "", err
			}
			gpuJ, err := energyOf(core.NewUniformSchedule(len(app.Stages), dev.GPUClass()))
			if err != nil {
				return res, "", err
			}
			bestBase := cpuJ
			if gpuJ < bestBase {
				bestBase = gpuJ
			}
			btRow = append(btRow, btJ)
			cpuRow = append(cpuRow, cpuJ)
			gpuRow = append(gpuRow, gpuJ)
			ratios = append(ratios, bestBase/btJ)
			t.AddRow(DeviceLabel(dev.Name), AppLabel(app.Name),
				fmt.Sprintf("%.4f", btJ), fmt.Sprintf("%.4f", cpuJ),
				fmt.Sprintf("%.4f", gpuJ), report.F2(bestBase/btJ))
		}
		res.BTJ = append(res.BTJ, btRow)
		res.CPUJ = append(res.CPUJ, cpuRow)
		res.GPUJ = append(res.GPUJ, gpuRow)
	}
	res.GeomeanSavingsVsBest = stats.GeoMean(ratios)
	body := t.Render() + fmt.Sprintf(
		"geomean energy ratio best-baseline/BT = %.2fx (BT saves energy when > 1)\n",
		res.GeomeanSavingsVsBest)
	return res, report.Section("Extension: energy per task", body), nil
}
