// Package sched is the BT-Optimizer (paper Sec. 3.3): it turns a
// profiling table into ranked pipeline schedules through three
// optimization levels —
//
//  1. Utilization: solve for the minimum-gapness schedule (objective O1)
//     and derive a utilization filter from it, keeping only schedules
//     whose chunks are balanced enough that the interference-heavy
//     profiling conditions actually hold at runtime.
//  2. Latency: take the K best schedules under the filter, ranked by
//     predicted bottleneck latency (T_max). The solver scores each
//     schedule once, which gives the distinct assignments the paper's
//     blocking clauses guarantee.
//  3. Autotuning: execute the top candidates on the device (the
//     simulator's virtual device here) and pick the best measured one,
//     absorbing residual model error within performance tiers.
//
// The package also implements the two baseline strategies the paper
// compares against in Figs. 5 and 6: latency-only optimization over the
// interference-aware table, and the prior-work approach of latency-only
// optimization over an isolated table.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
	"bettertogether/internal/solver"
)

// Strategy selects the optimization recipe.
type Strategy int

const (
	// BetterTogether is the full recipe: interference-aware table,
	// gapness filter, latency ranking (Fig. 5a).
	BetterTogether Strategy = iota
	// LatencyOnlyHeavy ranks by latency on the interference-aware table
	// without the utilization filter (Fig. 5b).
	LatencyOnlyHeavy
	// LatencyOnlyIsolated is the prior-work approach: isolated table,
	// latency-only ranking (Fig. 5c).
	LatencyOnlyIsolated
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case BetterTogether:
		return "better-together"
	case LatencyOnlyHeavy:
		return "latency-only"
	case LatencyOnlyIsolated:
		return "isolated-latency-only"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Objective selects what the autotuning level optimizes. The paper
// optimizes latency; the energy objectives are extensions enabled by the
// simulator's power model, trading the intro's two edge motivations
// (latency and energy) explicitly.
type Objective int

const (
	// ObjectiveLatency picks the candidate with the smallest measured
	// per-task latency (the paper's behaviour).
	ObjectiveLatency Objective = iota
	// ObjectiveEnergy picks the smallest measured energy per task.
	ObjectiveEnergy
	// ObjectiveEDP picks the smallest energy-delay product, the usual
	// balanced metric.
	ObjectiveEDP
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveLatency:
		return "latency"
	case ObjectiveEnergy:
		return "energy"
	case ObjectiveEDP:
		return "edp"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// DefaultK matches the paper's candidate pool size.
const DefaultK = 20

// DefaultUtilSlack is the utilization filter's tolerance: a schedule
// passes when its gapness is within this fraction of its own bottleneck
// time (or matches the optimum gap). It corresponds to the paper's
// T_min/T_max chunk-runtime window.
const DefaultUtilSlack = 0.40

// gapEps absorbs float rounding when comparing a schedule's gapness
// against the optimum gap in the utilization filter.
const gapEps = 1e-15

// ErrNoSchedule reports a candidate pool with no schedule in it.
var ErrNoSchedule = errors.New("sched: no feasible schedule")

// Candidate is one ranked schedule with its model prediction.
type Candidate struct {
	Schedule core.Schedule
	// Predicted is the model's per-task latency in seconds (T_max on the
	// strategy's table).
	Predicted float64
	// Gap is the predicted gapness.
	Gap float64
}

// Optimizer holds the inputs of an optimization run: the application,
// the device's affinity map (PU classes), and the profiling tables.
// Construct with New, which fills the paper's defaults explicitly.
type Optimizer struct {
	App    *core.Application
	Device *soc.Device
	Tables profiler.Tables
	// K is the candidate pool size. Negative selects DefaultK; an
	// explicit 0 is honored and yields an empty pool (New sets DefaultK,
	// so only callers that assign 0 get it).
	K int
	// UtilSlack is the utilization filter tolerance. Negative selects
	// DefaultUtilSlack; an explicit 0 is honored and admits only
	// minimum-gapness schedules (New sets DefaultUtilSlack).
	UtilSlack float64
	// Objective selects the autotuning metric (latency by default).
	Objective Objective
	// workers bounds concurrent candidate simulations in Autotune: 0
	// selects GOMAXPROCS, 1 runs serially, higher values are used as
	// given. Every candidate run is seed-deterministic and independent,
	// so the measured results are identical at any worker count, and
	// only the package's tests pin a count. Runs that record into the
	// caller's Options.Metrics or Options.Trace go serially whatever
	// workers says: those collectors are shared by every candidate run
	// and are not safe for concurrent writers.
	workers int
	// Search, when non-nil, receives the most recent Candidates call's
	// counters: schedules scored and schedules the utilization filter
	// rejected (reset per call).
	Search *solver.SearchStats
}

// New builds an optimizer with defaults.
func New(app *core.Application, dev *soc.Device, tables profiler.Tables) *Optimizer {
	return &Optimizer{App: app, Device: dev, Tables: tables, K: DefaultK, UtilSlack: DefaultUtilSlack}
}

func (o *Optimizer) k() int {
	if o.K < 0 {
		return DefaultK
	}
	return o.K
}

func (o *Optimizer) slack() float64 {
	if o.UtilSlack < 0 {
		return DefaultUtilSlack
	}
	return o.UtilSlack
}

// poolSize resolves the Autotune pool size for n candidates.
func (o *Optimizer) poolSize(n int) int {
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// table returns the profiling table a strategy predicts with.
func (o *Optimizer) table(s Strategy) *core.ProfileTable {
	if s == LatencyOnlyIsolated {
		return o.Tables.Isolated
	}
	return o.Tables.Heavy
}

// toSchedule maps a solver assignment back to PU classes.
func toSchedule(t *core.ProfileTable, assign []int) core.Schedule {
	s := core.Schedule{Assign: make([]core.PUClass, len(assign))}
	for i, c := range assign {
		s.Assign[i] = t.PUs[c]
	}
	return s
}

// Candidates runs optimization levels one and two for the strategy,
// returning up to K schedules ranked by predicted latency.
func (o *Optimizer) Candidates(strategy Strategy) []Candidate {
	tab := o.table(strategy)
	prob := &solver.Problem{N: len(tab.Stages), M: len(tab.PUs), Time: tab.Latency}
	var filter solver.FilterFunc
	if strategy == BetterTogether {
		// Level one: minimum gapness sets the utilization threshold.
		minGap, ok := solver.MinGap(prob)
		if !ok {
			return nil
		}
		slack := o.slack()
		gapCut := minGap + gapEps
		filter = func(s solver.Solution) bool {
			return s.Gap() <= gapCut || s.Gap() <= slack*s.TMax
		}
	}
	// Level two: the K best schedules by predicted latency, under the
	// utilization filter for BetterTogether and unfiltered for the
	// latency-only baselines. Each schedule is scored once, which is the
	// distinctness the paper's blocking clauses guarantee.
	sols := solver.TopK(prob, o.k(), filter, o.Search)
	out := make([]Candidate, len(sols))
	for i, s := range sols {
		out[i] = Candidate{Schedule: toSchedule(tab, s.Assign), Predicted: s.TMax, Gap: s.Gap()}
	}
	return out
}

// AutotuneResult reports optimization level three.
type AutotuneResult struct {
	// Measured[i] is candidate i's executed per-task latency in seconds.
	Measured []float64
	// Energy[i] is candidate i's measured energy per task in joules.
	Energy []float64
	// BestIndex is the candidate that optimizes the configured
	// objective.
	BestIndex int
}

// score evaluates a measurement under the objective.
func (o *Optimizer) score(latency, energy float64) float64 {
	switch o.Objective {
	case ObjectiveEnergy:
		return energy
	case ObjectiveEDP:
		return energy * latency
	default:
		return latency
	}
}

// Autotune executes each candidate on the device and returns the
// measured latencies and the winner — the paper's final optimization
// level, which absorbs residual prediction error within performance
// tiers (Sec. 5.2, Table 4). The candidate simulations run on a worker
// pool of up to workers goroutines: each run is seed-deterministic and
// independent, results land by candidate index, and the winner is
// selected by an in-order scan afterwards, so the outcome is identical
// at any worker count. Every candidate runs the same app on the same
// device under the same seed, so all of them draw the same stage-noise
// sequence: it is drawn once per call (pipeline.SimNoise) and shared
// read-only by the pool, and each measurement is bit-identical to an
// independent SimEngine run of that candidate.
func (o *Optimizer) Autotune(cands []Candidate, opts pipeline.Options) (AutotuneResult, error) {
	res := AutotuneResult{
		Measured:  make([]float64, len(cands)),
		Energy:    make([]float64, len(cands)),
		BestIndex: -1,
	}
	// Compile serially: plan validation is cheap next to simulation and
	// keeps the error contract deterministic (lowest index reports).
	plans := make([]*pipeline.Plan, len(cands))
	for i, c := range cands {
		plan, err := pipeline.NewPlan(o.App, o.Device, c.Schedule)
		if err != nil {
			return res, fmt.Errorf("sched: candidate %d invalid: %w", i, err)
		}
		plans[i] = plan
	}
	if len(plans) == 0 {
		return res, nil
	}
	noise := pipeline.NewSimNoise(plans[0], opts)
	measure := func(i int) {
		r := noise.Run(context.Background(), plans[i])
		res.Measured[i] = r.PerTask
		res.Energy[i] = r.EnergyPerTaskJ
	}
	if w := o.poolSize(len(cands)); w <= 1 || opts.Metrics != nil || opts.Trace != nil {
		for i := range plans {
			measure(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					measure(i)
				}
			}()
		}
		for i := range plans {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i := range cands {
		if res.BestIndex < 0 ||
			o.score(res.Measured[i], res.Energy[i]) < o.score(res.Measured[res.BestIndex], res.Energy[res.BestIndex]) {
			res.BestIndex = i
		}
	}
	return res, nil
}

// Optimize runs the full three-level pipeline for a strategy and returns
// the ranked candidates, the autotuning measurements, and the selected
// schedule.
func (o *Optimizer) Optimize(strategy Strategy, opts pipeline.Options) ([]Candidate, AutotuneResult, Candidate, error) {
	cands := o.Candidates(strategy)
	if len(cands) == 0 {
		return nil, AutotuneResult{}, Candidate{}, ErrNoSchedule
	}
	tune, err := o.Autotune(cands, opts)
	if err != nil {
		return cands, tune, Candidate{}, err
	}
	return cands, tune, cands[tune.BestIndex], nil
}

// MeasureUniform executes the homogeneous baseline on a single class —
// the all-GPU and all-big-CPU comparisons of Sec. 5.1.
func MeasureUniform(app *core.Application, dev *soc.Device, pu core.PUClass, opts pipeline.Options) (float64, error) {
	plan, err := pipeline.NewPlan(app, dev, core.NewUniformSchedule(len(app.Stages), pu))
	if err != nil {
		return 0, err
	}
	return pipeline.SimEngine{}.Run(context.Background(), plan, opts).PerTask, nil
}
