// Package dataparallel implements the alternative strategy the paper's
// introduction argues against (Sec. 1, citing Mittal & Vetter's survey):
// instead of pipelining stages across PUs, run *every* stage on *all*
// PUs simultaneously, splitting its data in proportion to each PU's
// profiled speed. The paper's point is that this forces PUs to execute
// poorly-suited work — the GPU still handles a slice of sorting — and
// that stage-to-PU pipelining beats it; this package makes that claim
// testable with a simulated measurement of the data-parallel strategy,
// which the data-parallelism ablation sets against the pipeline.
package dataparallel

import (
	"math"
	"math/rand"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// MinShare is the smallest useful work fraction: a PU whose
// speed-proportional share falls below it is dropped from the stage and
// the remainder redistributed, since a tiny slice cannot amortize the
// PU's dispatch overhead (especially GPU launches).
const MinShare = 0.10

// Shares computes, for each stage, the fraction of its data assigned to
// each PU class: share ∝ 1/latency from the profiling table, the
// standard speed-proportional split, with sub-MinShare contributors
// dropped and the split renormalized. Rows follow tab.Stages, columns
// tab.PUs.
func Shares(tab *core.ProfileTable) [][]float64 {
	out := make([][]float64, len(tab.Stages))
	for i := range tab.Stages {
		speed := make([]float64, len(tab.PUs))
		for j := range tab.PUs {
			if t := tab.Latency[i][j]; t > 0 {
				speed[j] = 1 / t
			}
		}
		row := normalize(speed)
		// Iteratively drop sub-threshold PUs; terminates because each
		// pass removes at least one contributor or changes nothing.
		for {
			dropped := false
			for j, v := range row {
				if v > 0 && v < MinShare {
					speed[j] = 0
					dropped = true
				}
			}
			if !dropped {
				break
			}
			row = normalize(speed)
		}
		out[i] = row
	}
	return out
}

func normalize(speed []float64) []float64 {
	total := 0.0
	for _, v := range speed {
		total += v
	}
	row := make([]float64, len(speed))
	for j, v := range speed {
		if total > 0 {
			row[j] = v / total
		}
	}
	return row
}

// scaleCost returns the cost of a stage's slice: work terms scale with
// the share, structural fractions do not.
func scaleCost(c core.CostSpec, share float64) core.CostSpec {
	c.FLOPs *= share
	c.Bytes *= share
	c.WorkItems *= share
	return c
}

// Options configure a data-parallel run.
type Options struct {
	// Tasks and Warmup follow the pipeline conventions.
	Tasks, Warmup int
	// Seed drives the simulated measurement noise.
	Seed int64
}

// stageTime samples one stage's data-parallel completion time: every PU
// runs its slice under the interference of the others' slices, and the
// stage ends when the slowest slice does.
func stageTime(dev *soc.Device, cost core.CostSpec, pus []core.PUClass, shares []float64, rng *rand.Rand) float64 {
	worst := 0.0
	for j, pu := range pus {
		if shares[j] <= 0 {
			continue
		}
		// Every other PU is busy with its own slice of the same stage.
		env := soc.Env{}
		for k, other := range pus {
			if k == j || shares[k] <= 0 {
				continue
			}
			env[other] = soc.Load{
				MemIntensity: dev.Intensity(scaleCost(cost, shares[k]), other),
			}
		}
		worst = math.Max(worst, dev.Sample(scaleCost(cost, shares[j]), pu, env, rng))
	}
	return worst
}

// Simulate measures the data-parallel strategy on the simulated device:
// Tasks tasks after Warmup, each executing the stage sequence with all
// PUs co-running each stage's slices; stages run in sequence, since data
// parallelism does not overlap them. Returns the mean per-task latency
// in seconds.
func Simulate(app *core.Application, dev *soc.Device, tab *core.ProfileTable, opts Options) float64 {
	if opts.Tasks <= 0 {
		opts.Tasks = 30
	}
	shares := Shares(tab)
	rng := rand.New(rand.NewSource(opts.Seed))
	sum := 0.0
	for task := 0; task < opts.Warmup+opts.Tasks; task++ {
		taskTime := 0.0
		for i, stage := range app.Stages {
			taskTime += stageTime(dev, stage.Cost, tab.PUs, shares[i], rng)
		}
		if task >= opts.Warmup {
			sum += taskTime
		}
	}
	return sum / float64(opts.Tasks)
}
