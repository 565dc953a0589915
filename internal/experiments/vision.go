package experiments

import (
	"context"
	"fmt"

	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/report"
	"bettertogether/internal/sched"
	"bettertogether/internal/stats"
)

// VisionResult schedules the extension camera pipeline across the fleet —
// the portability story of Sec. 1 applied to a workload the paper never
// saw: the same application code, specialized per device by the
// framework.
type VisionResult struct {
	Devices   []string
	BT        []float64 // seconds per frame
	CPU, GPU  []float64
	Speedup   []float64 // best homogeneous / BT
	Schedules []string
	Geomean   float64
}

// ExtVision runs the full optimization for the camera pipeline on every
// device.
func (s *Suite) ExtVision() (VisionResult, string, error) {
	app, err := vision.NewApplication(vision.DefaultWidth, vision.DefaultHeight)
	if err != nil {
		return VisionResult{}, "", err
	}
	res := VisionResult{}
	t := report.NewTable("Extension: camera pipeline across the fleet (ms per frame)",
		"Device", "BT", "CPU-only", "GPU-only", "Speedup", "Schedule")
	var sps []float64
	for _, dev := range s.Devices {
		tabs := profiler.ProfileBoth(app, dev, profileConfig("vision-prof", dev.Name))
		opt := sched.New(app, dev, tabs)
		opts := pipeline.Options{Tasks: suiteTasks, Warmup: suiteWarmup,
			Seed: seedFor("vision-run", dev.Name)}
		_, tune, best, err := opt.Optimize(sched.BetterTogether, opts)
		if err != nil {
			return res, "", err
		}
		bt := tune.Measured[tune.BestIndex]
		measure := func(pu core.PUClass) (float64, error) {
			plan, err := pipeline.NewPlan(app, dev, core.NewUniformSchedule(len(app.Stages), pu))
			if err != nil {
				return 0, err
			}
			return simEngine.Run(context.Background(), plan, opts).PerTask, nil
		}
		cpu, err := measure(core.ClassBig)
		if err != nil {
			return res, "", err
		}
		gpu, err := measure(dev.GPUClass())
		if err != nil {
			return res, "", err
		}
		bestBase := cpu
		if gpu < bestBase {
			bestBase = gpu
		}
		sp := bestBase / bt
		res.Devices = append(res.Devices, dev.Name)
		res.BT = append(res.BT, bt)
		res.CPU = append(res.CPU, cpu)
		res.GPU = append(res.GPU, gpu)
		res.Speedup = append(res.Speedup, sp)
		res.Schedules = append(res.Schedules, best.Schedule.String())
		sps = append(sps, sp)
		t.AddRow(DeviceLabel(dev.Name), report.Ms(bt), report.Ms(cpu), report.Ms(gpu),
			report.F2(sp), best.Schedule.String())
	}
	res.Geomean = stats.GeoMean(sps)
	body := t.Render() + fmt.Sprintf("geomean speedup over best homogeneous: %.2fx\n", res.Geomean)
	return res, report.Section("Extension: vision workload portability", body), nil
}
