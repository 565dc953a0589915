package experiments

import (
	"fmt"

	"bettertogether/internal/pipeline"
	"bettertogether/internal/report"
	"bettertogether/internal/sched"
	"bettertogether/internal/stats"
)

// Fig4Result holds the heterogeneous-vs-homogeneous speedups.
type Fig4Result struct {
	Devices []string
	Apps    []string
	// BT[d][a] is BetterTogether's measured per-task latency (seconds).
	BT [][]float64
	// Best[d][a] is the faster homogeneous baseline (seconds).
	Best [][]float64
	// Speedup[d][a] = Best / BT.
	Speedup [][]float64
	// Schedules[d][a] is the selected schedule's rendering.
	Schedules [][]string
	// Geomean is over all cells; PerDevice[d] over that device's apps;
	// Max is the largest cell.
	Geomean   float64
	PerDevice []float64
	Max       float64
	// SpeedupVsCPU and SpeedupVsGPU aggregate against each homogeneous
	// baseline separately (the paper reports 2.72x over GPU-only and
	// 11.23x over CPU-only in Sec. 1.1).
	GeomeanVsCPU, GeomeanVsGPU float64
}

// Fig4 runs the full three-level optimization on every app-device combo
// and compares against the best homogeneous baseline. The 12-cell grid
// fans across the suite's worker pool (each cell's seeds derive from its
// combo names alone); aggregation and rendering stay serial, so results
// and report are identical at any worker count.
func (s *Suite) Fig4() (Fig4Result, Table3Result, string, error) {
	base, baseBody, err := s.Table3()
	if err != nil {
		return Fig4Result{}, base, "", err
	}
	res := Fig4Result{Devices: base.Devices, Apps: base.Apps}
	var all, vsCPU, vsGPU []float64

	type fig4Cell struct {
		bt  float64
		sch string
	}
	na := len(s.Apps)
	grid := make([]fig4Cell, len(s.Devices)*na)
	if err := s.forEach(len(grid), func(i int) error {
		dev, app := s.Devices[i/na], s.Apps[i%na]
		tabs := s.Tables(app, dev)
		opt := sched.New(app, dev, tabs)
		autoOpts := pipeline.Options{
			Tasks: suiteTasks, Warmup: suiteWarmup,
			Seed: seedFor("fig4-autotune", app.Name, dev.Name),
		}
		_, _, best, err := opt.Optimize(sched.BetterTogether, autoOpts)
		if err != nil {
			return fmt.Errorf("fig4 %s/%s: %w", app.Name, dev.Name, err)
		}
		bt, err := s.Measure(app, dev, best.Schedule, "fig4-final")
		if err != nil {
			return err
		}
		grid[i] = fig4Cell{bt: bt, sch: best.Schedule.String()}
		return nil
	}); err != nil {
		return res, base, "", err
	}

	chart := report.NewBarChart("Fig 4: speedup of BetterTogether over best homogeneous baseline", 40)
	detail := report.NewTable("Selected schedules",
		"Device", "App", "BT (ms)", "Best base (ms)", "Speedup", "Schedule")

	for di, dev := range s.Devices {
		var btRow, bestRow, spRow []float64
		var schRow []string
		for ai, app := range s.Apps {
			c := grid[di*na+ai]
			cell := base.Cells[di][ai]
			sp := cell.Best() / c.bt
			btRow = append(btRow, c.bt)
			bestRow = append(bestRow, cell.Best())
			spRow = append(spRow, sp)
			schRow = append(schRow, c.sch)
			all = append(all, sp)
			vsCPU = append(vsCPU, cell.CPU/c.bt)
			vsGPU = append(vsGPU, cell.GPU/c.bt)
			if sp > res.Max {
				res.Max = sp
			}
			label := fmt.Sprintf("%s/%s", DeviceLabel(dev.Name), AppLabel(app.Name))
			chart.Add(label, sp)
			detail.AddRow(DeviceLabel(dev.Name), AppLabel(app.Name),
				report.Ms(c.bt), report.Ms(cell.Best()), report.F2(sp), c.sch)
		}
		res.BT = append(res.BT, btRow)
		res.Best = append(res.Best, bestRow)
		res.Speedup = append(res.Speedup, spRow)
		res.Schedules = append(res.Schedules, schRow)
		res.PerDevice = append(res.PerDevice, stats.GeoMean(spRow))
	}
	res.Geomean = stats.GeoMean(all)
	res.GeomeanVsCPU = stats.GeoMean(vsCPU)
	res.GeomeanVsGPU = stats.GeoMean(vsGPU)

	body := chart.Render() + "\n" + detail.Render() +
		fmt.Sprintf("\ngeomean speedup %.2fx (max %.2fx); vs CPU-only %.2fx; vs GPU-only %.2fx\n",
			res.Geomean, res.Max, res.GeomeanVsCPU, res.GeomeanVsGPU)
	for di, dn := range res.Devices {
		body += fmt.Sprintf("  %-12s geomean %.2fx\n", DeviceLabel(dn), res.PerDevice[di])
	}
	return res, base, baseBody + report.Section("Fig 4: overall heterogeneous performance", body), nil
}
