package experiments

import (
	"fmt"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/report"
	btruntime "bettertogether/internal/runtime"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

// Drift-convergence experiment constants: octree on the Pixel 7a with
// the GPU's model estimates distorted.
const (
	driftDevice = soc.Pixel7a
	driftApp    = "octree"
	driftTarget = core.ClassGPU
	// driftErrorFactor scales the model's estimates for the target PU
	// class before planning. Values below 1 underestimate the class, so
	// the candidate generator over-assigns it — the planner then schedules
	// stages it should not, observes them running 1/factor slower than
	// modeled, and the feedback loop has something real to correct.
	driftErrorFactor = 0.25
	// driftK shrinks the candidate pool so the distorted model's ranking
	// actually excludes the oracle schedule: autotuning measures
	// candidates on the true simulator, so with a large pool the measured
	// pick would absorb the injected error before feedback could.
	driftK = 2
	// driftTasks and driftWaveTasks give the session enough wave
	// boundaries to detect drift and converge within one run.
	driftTasks     = 48
	driftWaveTasks = 6
)

// driftEstimatorConfig tunes the feedback loop for short deterministic
// runs: the floor and hysteresis must fit inside a few waves.
var driftEstimatorConfig = onlineprof.Config{MinSamples: 3, Hysteresis: 2}

// DriftRun is one runtime pass of the experiment: the schedule the
// planner picked at admission, the schedule the session ended on, and
// the feedback loop's counters.
type DriftRun struct {
	Initial      string
	Final        string
	DriftReplans int
	Stats        obs.OnlineProfStats
}

// DriftConvergenceResult is the experiment outcome. Oracle is the
// clean-model run (also the zero-injected-error control: its
// DriftReplans must be 0); Distorted is the run with the injected
// error. Converged reports that the distorted run's final schedule
// matches the oracle's.
type DriftConvergenceResult struct {
	Oracle    DriftRun
	Distorted DriftRun
	Converged bool
}

// DriftConvergence measures the online-profiling feedback loop
// end-to-end on octree and the Pixel 7a. The oracle run plans with the
// true model and defines the correct schedule. The distorted run plans
// with the GPU's estimates scaled by 0.25 — the candidate generator
// then over-assigns that class and picks a wrong schedule — and runs
// with online profiling enabled: the estimator observes the GPU running
// 4× slower than modeled, latches drift, and the wave-boundary replan
// solves with the learned correction overlaid, converging back to the
// oracle schedule. Everything runs on the deterministic simulator: the
// same seed, which drives the planning noise streams, yields
// byte-identical results on every run.
func DriftConvergence(seed int64) (DriftConvergenceResult, string, error) {
	var res DriftConvergenceResult

	run := func(factor float64) (DriftRun, error) {
		var out DriftRun
		dev, err := soc.DeviceByName(driftDevice)
		if err != nil {
			return out, err
		}
		app, err := btapps.ByName(driftApp)
		if err != nil {
			return out, err
		}
		rtCfg := btruntime.Config{
			Device:     dev,
			Seed:       seed,
			K:          driftK,
			OnlineProf: &driftEstimatorConfig,
		}
		if factor != 1 {
			rtCfg.ModelAdjustDigest = fmt.Sprintf("inject:%s*%g", driftTarget, factor)
			rtCfg.ModelAdjust = func(_ string, pu core.PUClass, sec float64) float64 {
				if pu == driftTarget {
					return sec * factor
				}
				return sec
			}
		}
		rt, err := btruntime.New(rtCfg)
		if err != nil {
			return out, err
		}
		defer rt.Close()
		s, err := rt.Admit(app, btruntime.AdmitOptions{Tasks: driftTasks, WaveTasks: driftWaveTasks})
		if err != nil {
			return out, err
		}
		out.Initial = s.Schedule().String()
		if r := s.Wait(); r.Err != nil {
			return out, r.Err
		}
		out.Final = s.Schedule().String()
		out.DriftReplans = rt.ReplansFromDrift()
		out.Stats, _ = rt.OnlineProfStats()
		return out, nil
	}

	var err error
	if res.Oracle, err = run(1); err != nil {
		return res, "", fmt.Errorf("oracle run: %w", err)
	}
	if res.Distorted, err = run(driftErrorFactor); err != nil {
		return res, "", fmt.Errorf("distorted run: %w", err)
	}
	res.Converged = res.Distorted.Final == res.Oracle.Final

	t := report.NewTable(fmt.Sprintf("Drift convergence: %s on %s (%s x%g)",
		driftApp, DeviceLabel(driftDevice), driftTarget, driftErrorFactor),
		"run", "initial schedule", "final schedule", "drift re-plans", "drifts", "observations")
	t.AddRow("oracle", res.Oracle.Initial, res.Oracle.Final,
		fmt.Sprintf("%d", res.Oracle.DriftReplans),
		fmt.Sprintf("%d", res.Oracle.Stats.DriftsTriggered),
		fmt.Sprintf("%d", res.Oracle.Stats.Observations))
	t.AddRow("distorted", res.Distorted.Initial, res.Distorted.Final,
		fmt.Sprintf("%d", res.Distorted.DriftReplans),
		fmt.Sprintf("%d", res.Distorted.Stats.DriftsTriggered),
		fmt.Sprintf("%d", res.Distorted.Stats.Observations))
	body := report.Section("Drift: online-profiling convergence",
		t.Render()+fmt.Sprintf("\nconverged to oracle: %v\n", res.Converged))
	return res, body, nil
}
