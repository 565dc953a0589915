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

// Drift-convergence experiment defaults.
const (
	// DefaultDriftErrorFactor scales the model's estimates for the target
	// PU class before planning. Values below 1 underestimate the class, so
	// the candidate generator over-assigns it — the planner then schedules
	// stages it should not, observes them running 1/factor slower than
	// modeled, and the feedback loop has something real to correct.
	DefaultDriftErrorFactor = 0.25
	// DefaultDriftK shrinks the candidate pool so the distorted model's
	// ranking actually excludes the oracle schedule: autotuning measures
	// candidates on the true simulator, so with a large pool the measured
	// pick would absorb the injected error before feedback could.
	DefaultDriftK = 2
	// DefaultDriftTasks and DefaultDriftWaveTasks give the session enough
	// wave boundaries to detect drift and converge within one run.
	DefaultDriftTasks     = 48
	DefaultDriftWaveTasks = 6
)

// DriftConvergenceConfig parameterizes the online-profiling
// drift-convergence experiment.
type DriftConvergenceConfig struct {
	// Device is the SoC to run on ("" selects Pixel 7a).
	Device string
	// App is the application ("" selects octree).
	App string
	// TargetClass is the PU class whose model estimates are distorted
	// ("" selects gpu).
	TargetClass core.PUClass
	// ErrorFactor scales the target class's estimates before planning
	// (<= 0 selects DefaultDriftErrorFactor; 1 disables the injection).
	ErrorFactor float64
	// Tasks and WaveTasks shape the session (<= 0 selects the defaults).
	Tasks     int
	WaveTasks int
	// K is the candidate pool per planning pass (<= 0 selects
	// DefaultDriftK).
	K int
	// Seed drives the planning noise streams.
	Seed int64
}

func (c DriftConvergenceConfig) withDefaults() DriftConvergenceConfig {
	if c.Device == "" {
		c.Device = soc.Pixel7a
	}
	if c.App == "" {
		c.App = "octree"
	}
	if c.TargetClass == "" {
		c.TargetClass = core.ClassGPU
	}
	if c.ErrorFactor <= 0 {
		c.ErrorFactor = DefaultDriftErrorFactor
	}
	if c.Tasks <= 0 {
		c.Tasks = DefaultDriftTasks
	}
	if c.WaveTasks <= 0 {
		c.WaveTasks = DefaultDriftWaveTasks
	}
	if c.K <= 0 {
		c.K = DefaultDriftK
	}
	return c
}

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
// DriftReplans must be 0); Distorted is the run with ErrorFactor
// injected. Converged reports that the distorted run's final schedule
// matches the oracle's.
type DriftConvergenceResult struct {
	Device      string
	App         string
	TargetClass core.PUClass
	ErrorFactor float64
	Oracle      DriftRun
	Distorted   DriftRun
	Converged   bool
}

// DriftConvergence measures the online-profiling feedback loop
// end-to-end. The oracle run plans with the true model and defines the
// correct schedule. The distorted run plans with the target class's
// estimates scaled by ErrorFactor — the candidate generator then
// over-assigns that class and picks a wrong schedule — and runs with
// online profiling enabled: the estimator observes the injected class
// running 1/ErrorFactor slower than modeled, latches drift, and the
// wave-boundary replan solves with the learned correction overlaid,
// converging back to the oracle schedule. Everything runs on the
// deterministic simulator: the same config yields byte-identical
// results on every run.
func DriftConvergence(cfg DriftConvergenceConfig) (DriftConvergenceResult, string, error) {
	cfg = cfg.withDefaults()
	res := DriftConvergenceResult{
		Device:      cfg.Device,
		App:         cfg.App,
		TargetClass: cfg.TargetClass,
		ErrorFactor: cfg.ErrorFactor,
	}

	run := func(factor float64) (DriftRun, error) {
		var out DriftRun
		dev, err := soc.DeviceByName(cfg.Device)
		if err != nil {
			return out, err
		}
		app, err := btapps.ByName(cfg.App)
		if err != nil {
			return out, err
		}
		rtCfg := btruntime.Config{
			Device:     dev,
			Seed:       cfg.Seed,
			K:          cfg.K,
			OnlineProf: &driftEstimatorConfig,
		}
		if factor != 1 {
			target := cfg.TargetClass
			rtCfg.ModelAdjustDigest = fmt.Sprintf("inject:%s*%g", target, factor)
			rtCfg.ModelAdjust = func(_ string, pu core.PUClass, sec float64) float64 {
				if pu == target {
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
		s, err := rt.Admit(app, btruntime.AdmitOptions{Tasks: cfg.Tasks, WaveTasks: cfg.WaveTasks})
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
	if res.Distorted, err = run(cfg.ErrorFactor); err != nil {
		return res, "", fmt.Errorf("distorted run: %w", err)
	}
	res.Converged = res.Distorted.Final == res.Oracle.Final

	t := report.NewTable(fmt.Sprintf("Drift convergence: %s on %s (%s x%g)",
		cfg.App, DeviceLabel(cfg.Device), cfg.TargetClass, cfg.ErrorFactor),
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
