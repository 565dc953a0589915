// Package profiler is the BT-Profiler (paper Sec. 3.2): black-box
// profiling of every stage on every PU class, in two execution modes —
// isolated (the conventional methodology of prior work) and
// interference-heavy, where every other PU concurrently runs the same
// computation as the measuring PU. Each measurement repeats Reps times
// (30 in the paper) and the mean populates the profiling table.
//
// The profiler never looks inside kernels or the SoC model's parameters:
// it only takes the model's estimate and the device's measurement noise,
// one noisy latency per repetition, standing in for the paper's
// hardware-timer instrumentation.
package profiler

import (
	"bettertogether/internal/core"
	"bettertogether/internal/soc"
	"bettertogether/internal/stats"
)

// DefaultReps matches the paper's 30 repetitions per measurement.
const DefaultReps = 30

// Adjust rescales one profiled mean latency before it enters the table.
// It receives the stage name, the PU class, and the measured mean in
// seconds, and returns the value to store. Two producers use it: the
// online profiler overlays learned observed/modeled ratios so replans
// solve against corrected latencies, and experiments inject controlled
// modeling error to exercise drift detection. A nil Adjust is identity.
type Adjust func(stage string, pu core.PUClass, seconds float64) float64

// Compose chains adjustments left to right; nil entries are skipped. A
// call with no (effective) adjustments returns nil, keeping the
// identity case representable as the nil Adjust.
func Compose(adjusts ...Adjust) Adjust {
	live := make([]Adjust, 0, len(adjusts))
	for _, a := range adjusts {
		if a != nil {
			live = append(live, a)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(stage string, pu core.PUClass, seconds float64) float64 {
		for _, a := range live {
			seconds = a(stage, pu, seconds)
		}
		return seconds
	}
}

// Config controls a profiling run.
type Config struct {
	// Reps is the measurement repetition count (DefaultReps when <= 0).
	Reps int
	// Seed drives the measurement-noise stream, keeping profiling
	// deterministic per configuration.
	Seed int64
	// BaseEnv is an external interference environment overlaid on every
	// measurement, isolated and heavy alike: PU classes busy on behalf
	// of *other* workloads resident on the device. The runtime layer
	// profiles applications this way when re-planning, so tables reflect
	// who else is on the SoC. Nil reproduces the paper's single-app
	// profiling exactly. Loads on the class being measured are kept —
	// they model a co-runner contending for that class's bandwidth from
	// the outside.
	BaseEnv soc.Env
	// Adjust, when non-nil, rescales every profiled mean before it is
	// stored: learned online-profiling corrections, or injected modeling
	// error in experiments. It sees the post-mean value, so repetition
	// noise averages out before the correction applies.
	Adjust Adjust
}

func (c Config) withDefaults() Config {
	if c.Reps <= 0 {
		c.Reps = DefaultReps
	}
	return c
}

// Profile builds the stage × PU table for one application on one device
// in the given mode.
//
// The model is deterministic given (stage, PU, environment) — the
// governor is a pure function of the busy set — so each cell's estimate
// is evaluated once and only the measurement noise is drawn per
// repetition: Reps Device.Noise multipliers around that one estimate,
// in the same order and with the same values as Reps Device.Sample
// calls would produce. Each cell's environment is BaseEnv with, in heavy
// mode, every other class running the measured stage (Device.HeavyEnv
// overlaid with Env.Add's clamp-then-saturate rule), rebuilt in
// place rather than as a map per cell.
func Profile(app *core.Application, dev *soc.Device, mode core.ProfileMode, cfg Config) *core.ProfileTable {
	cfg = cfg.withDefaults()
	rng := soc.NoiseRand(cfg.Seed)
	defer soc.PutNoiseRand(rng)
	classes := dev.Classes()
	table := core.NewProfileTable(app.Name, dev.Name, mode, app.StageNames(), classes)
	samples := make([]float64, cfg.Reps)
	terms := make([]soc.Terms, len(classes))
	envs := dev.NewEnvOverlay(cfg.BaseEnv)
	for i, stage := range app.Stages {
		for k, pu := range classes {
			terms[k] = dev.Terms(stage.Cost, pu)
		}
		for j, pu := range classes {
			env := envs.Reset()
			if mode == core.InterferenceHeavy {
				// All other PUs run the same computation as the
				// measuring PU (Sec. 3.2).
				for k := range terms {
					if k != j {
						env.Add(k, soc.Load{MemIntensity: terms[k].Intensity})
					}
				}
			}
			est, _ := dev.EstimateIn(&terms[j], envs.Seal())
			for r := range samples {
				samples[r] = est * dev.Noise(rng)
			}
			mean := stats.Mean(samples)
			if cfg.Adjust != nil {
				mean = cfg.Adjust(stage.Name, pu, mean)
			}
			table.Set(i, pu, mean)
		}
	}
	return table
}

// Tables bundles both profiling modes for one app-device pair.
type Tables struct {
	Isolated *core.ProfileTable
	Heavy    *core.ProfileTable
}

// ProfileBoth runs both modes with correlated seeds.
func ProfileBoth(app *core.Application, dev *soc.Device, cfg Config) Tables {
	return Tables{
		Isolated: Profile(app, dev, core.Isolated, cfg),
		Heavy:    Profile(app, dev, core.InterferenceHeavy, Config{Reps: cfg.Reps, Seed: cfg.Seed + 1, BaseEnv: cfg.BaseEnv, Adjust: cfg.Adjust}),
	}
}

// InterferenceRatios returns, per PU class, the mean over stages of
// heavy/isolated latency — the quantity Fig. 7 plots per device. Values
// above 1 are slowdowns under contention; below 1 are the counter-
// intuitive speedups (GPU clock boosts) of Sec. 5.3. A class with no
// stage measured at a positive isolated latency has no defined ratio and
// is omitted from the map rather than reported as NaN (stats.Mean of an
// empty slice), which would otherwise flow silently into Fig. 7 reports.
func InterferenceRatios(t Tables) map[core.PUClass]float64 {
	out := make(map[core.PUClass]float64, len(t.Heavy.PUs))
	for j, pu := range t.Heavy.PUs {
		ratios := make([]float64, 0, len(t.Heavy.Stages))
		for i := range t.Heavy.Stages {
			iso := t.Isolated.Latency[i][j]
			if iso > 0 {
				ratios = append(ratios, t.Heavy.Latency[i][j]/iso)
			}
		}
		if len(ratios) == 0 {
			continue
		}
		out[pu] = stats.Mean(ratios)
	}
	return out
}

// MaxStageRatio returns the largest per-stage heavy/isolated ratio and
// the stage and PU where it occurs — the paper's Sec. 3.2 observation of
// stage-level differences up to 2.25× on the Pixel.
func MaxStageRatio(t Tables) (stage string, pu core.PUClass, ratio float64) {
	for i, name := range t.Heavy.Stages {
		for j, class := range t.Heavy.PUs {
			iso := t.Isolated.Latency[i][j]
			if iso <= 0 {
				continue
			}
			if r := t.Heavy.Latency[i][j] / iso; r > ratio {
				stage, pu, ratio = name, class, r
			}
		}
	}
	return stage, pu, ratio
}
