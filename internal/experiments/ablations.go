package experiments

import (
	"context"
	"fmt"
	"math"

	"bettertogether/internal/core"
	"bettertogether/internal/dataparallel"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/report"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/stats"
)

// Ablations probe the design choices the paper motivates but does not
// sweep: the pipelining strategy itself (vs data parallelism), the
// gapness/utilization filter, the candidate pool size K, the
// multi-buffering depth, and the profiling repetition count.

// DataParallelResult compares the paper's strategy against the Sec. 1
// strawman on every combo.
type DataParallelResult struct {
	Devices, Apps []string
	// BT[d][a], DP[d][a], BestBase[d][a] in seconds.
	BT, DP, BestBase [][]float64
	// GeomeanDPOverBT aggregates DP/BT (>1 means pipelining wins).
	GeomeanDPOverBT float64
}

// AblationDataParallel measures data-parallel execution against the
// BetterTogether pipeline and the best homogeneous baseline.
func (s *Suite) AblationDataParallel() (DataParallelResult, string, error) {
	base, _, err := s.Table3()
	if err != nil {
		return DataParallelResult{}, "", err
	}
	res := DataParallelResult{Devices: base.Devices, Apps: base.Apps}
	t := report.NewTable("Ablation: pipelining vs data parallelism (ms per task)",
		"Device", "App", "BetterTogether", "Data-parallel", "Best homogeneous", "DP/BT")
	var ratios []float64
	for di, dev := range s.Devices {
		var btRow, dpRow, baseRow []float64
		for ai, app := range s.Apps {
			tabs := s.Tables(app, dev)
			opt := sched.New(app, dev, tabs)
			autoOpts := pipeline.Options{Tasks: suiteTasks, Warmup: suiteWarmup,
				Seed: seedFor("abl-dp-bt", app.Name, dev.Name)}
			_, tune, _, err := opt.Optimize(sched.BetterTogether, autoOpts)
			if err != nil {
				return res, "", err
			}
			bt := tune.Measured[tune.BestIndex]
			dp := dataparallel.Simulate(app, dev, tabs.Heavy, dataparallel.Options{
				Tasks: suiteTasks, Warmup: suiteWarmup,
				Seed: seedFor("abl-dp-dp", app.Name, dev.Name),
			})
			btRow = append(btRow, bt)
			dpRow = append(dpRow, dp)
			baseRow = append(baseRow, base.Cells[di][ai].Best())
			ratios = append(ratios, dp/bt)
			t.AddRow(DeviceLabel(dev.Name), AppLabel(app.Name),
				report.Ms(bt), report.Ms(dp), report.Ms(base.Cells[di][ai].Best()),
				report.F2(dp/bt))
		}
		res.BT = append(res.BT, btRow)
		res.DP = append(res.DP, dpRow)
		res.BestBase = append(res.BestBase, baseRow)
	}
	res.GeomeanDPOverBT = stats.GeoMean(ratios)
	body := t.Render() + fmt.Sprintf("geomean DP/BT = %.2fx (pipelining wins when > 1)\n",
		res.GeomeanDPOverBT)
	return res, report.Section("Ablation: data parallelism", body), nil
}

// KSweepResult reports the autotuned outcome as the candidate pool
// grows.
type KSweepResult struct {
	K        []int
	Measured []float64 // best measured latency per K, seconds
}

// AblationK sweeps the candidate pool size on Octree/Pixel: K=1 trusts
// the model's single best prediction; larger K lets autotuning recover
// within-tier misprediction (paper Sec. 3.3 uses K=20).
func (s *Suite) AblationK() (KSweepResult, string, error) {
	app, err := s.AppByName("octree-uniform")
	if err != nil {
		return KSweepResult{}, "", err
	}
	dev, err := s.DeviceByName(soc.Pixel7a)
	if err != nil {
		return KSweepResult{}, "", err
	}
	tabs := s.Tables(app, dev)
	res := KSweepResult{}
	t := report.NewTable("Ablation: candidate pool size K (Octree on Pixel)",
		"K", "best measured (ms)", "vs K=1")
	first := 0.0
	for _, k := range []int{1, 2, 5, 10, 20, 40} {
		opt := sched.New(app, dev, tabs)
		opt.K = k
		opts := pipeline.Options{Tasks: suiteTasks, Warmup: suiteWarmup,
			Seed: seedFor("abl-k", app.Name, dev.Name)}
		_, tune, _, err := opt.Optimize(sched.BetterTogether, opts)
		if err != nil {
			return res, "", err
		}
		best := tune.Measured[tune.BestIndex]
		res.K = append(res.K, k)
		res.Measured = append(res.Measured, best)
		if first == 0 {
			first = best
		}
		t.AddRow(fmt.Sprintf("%d", k), report.Ms(best), report.F2(first/best))
	}
	return res, report.Section("Ablation: K sweep", t.Render()), nil
}

// BufferSweepResult reports multi-buffering depth vs throughput.
type BufferSweepResult struct {
	Buffers  []int
	PerTask  []float64
	Schedule core.Schedule
}

// AblationBuffers sweeps the TaskObject multi-buffering depth for the
// Octree/Pixel BT schedule. Depth 1 serializes the chunks (no
// pipelining); the paper's design needs at least one object per chunk in
// flight to overlap.
func (s *Suite) AblationBuffers() (BufferSweepResult, string, error) {
	app, err := s.AppByName("octree-uniform")
	if err != nil {
		return BufferSweepResult{}, "", err
	}
	dev, err := s.DeviceByName(soc.Pixel7a)
	if err != nil {
		return BufferSweepResult{}, "", err
	}
	tabs := s.Tables(app, dev)
	opt := sched.New(app, dev, tabs)
	cands := opt.Candidates(sched.BetterTogether)
	if len(cands) == 0 {
		return BufferSweepResult{}, "", fmt.Errorf("no candidates")
	}
	sch := cands[0].Schedule
	res := BufferSweepResult{Schedule: sch}
	t := report.NewTable(
		fmt.Sprintf("Ablation: multi-buffering depth for %s on Pixel", sch),
		"buffers", "per-task (ms)", "speedup vs 1")
	plan, err := pipeline.NewPlan(app, dev, sch)
	if err != nil {
		return res, "", err
	}
	first := 0.0
	for _, b := range []int{1, 2, 3, 4, 6, 8} {
		r := simEngine.Run(context.Background(), plan, pipeline.Options{
			Tasks: suiteTasks, Warmup: suiteWarmup, Buffers: b,
			Seed: seedFor("abl-buffers", app.Name, dev.Name),
		})
		res.Buffers = append(res.Buffers, b)
		res.PerTask = append(res.PerTask, r.PerTask)
		if first == 0 {
			first = r.PerTask
		}
		t.AddRow(fmt.Sprintf("%d", b), report.Ms(r.PerTask), report.F2(first/r.PerTask))
	}
	return res, report.Section("Ablation: multi-buffering", t.Render()), nil
}

// RepsSweepResult reports model accuracy vs profiling repetitions.
type RepsSweepResult struct {
	Reps    []int
	Pearson []float64
}

// AblationReps sweeps the profiler's repetition count on
// AlexNet-sparse/Pixel and reports the BT strategy's top-20 correlation:
// the paper's 30 repetitions buy noise immunity.
func (s *Suite) AblationReps() (RepsSweepResult, string, error) {
	app, err := s.AppByName("alexnet-sparse")
	if err != nil {
		return RepsSweepResult{}, "", err
	}
	dev, err := s.DeviceByName(soc.Pixel7a)
	if err != nil {
		return RepsSweepResult{}, "", err
	}
	res := RepsSweepResult{}
	t := report.NewTable("Ablation: profiling repetitions (AlexNet-sparse on Pixel)",
		"reps", "BT top-20 Pearson")
	for _, reps := range []int{1, 3, 10, 30} {
		tabs := profiler.ProfileBoth(app, dev, profiler.Config{Reps: reps, Seed: 777})
		opt := sched.New(app, dev, tabs)
		cands := opt.Candidates(sched.BetterTogether)
		var pred, meas []float64
		for _, c := range cands {
			m, err := s.Measure(app, dev, c.Schedule, fmt.Sprintf("abl-reps-%d", reps))
			if err != nil {
				return res, "", err
			}
			pred = append(pred, c.Predicted)
			meas = append(meas, m)
		}
		r, err := stats.Pearson(pred, meas)
		if err != nil {
			r = math.NaN()
		}
		res.Reps = append(res.Reps, reps)
		res.Pearson = append(res.Pearson, r)
		t.AddRow(fmt.Sprintf("%d", reps), report.F4(r))
	}
	return res, report.Section("Ablation: profiling repetitions", t.Render()), nil
}

// SlackSweepResult reports the utilization filter's tolerance sweep.
type SlackSweepResult struct {
	Slack    []float64
	Pearson  []float64 // BT top-K prediction correlation under each slack
	BestMs   []float64 // autotuned best measured latency, seconds
	PoolSize []int
}

// AblationSlack sweeps the gapness/utilization filter tolerance on
// AlexNet-sparse/Pixel: slack→∞ degenerates to latency-only ranking
// (Fig. 5b), slack→0 keeps only perfectly balanced schedules. The
// paper's C3 bounds correspond to the middle of this sweep.
func (s *Suite) AblationSlack() (SlackSweepResult, string, error) {
	app, err := s.AppByName("alexnet-sparse")
	if err != nil {
		return SlackSweepResult{}, "", err
	}
	dev, err := s.DeviceByName(soc.Pixel7a)
	if err != nil {
		return SlackSweepResult{}, "", err
	}
	tabs := s.Tables(app, dev)
	res := SlackSweepResult{}
	t := report.NewTable("Ablation: utilization-filter slack (AlexNet-sparse on Pixel)",
		"slack", "pool", "top-K Pearson", "autotuned best (ms)")
	for _, slack := range []float64{0.05, 0.2, 0.4, 0.8, 2.0} {
		opt := sched.New(app, dev, tabs)
		opt.UtilSlack = slack
		cands := opt.Candidates(sched.BetterTogether)
		var pred, meas []float64
		for _, c := range cands {
			m, err := s.Measure(app, dev, c.Schedule, fmt.Sprintf("abl-slack-%v", slack))
			if err != nil {
				return res, "", err
			}
			pred = append(pred, c.Predicted)
			meas = append(meas, m)
		}
		r, err := stats.Pearson(pred, meas)
		if err != nil {
			r = math.NaN()
		}
		best := math.Inf(1)
		for _, m := range meas {
			if m < best {
				best = m
			}
		}
		res.Slack = append(res.Slack, slack)
		res.Pearson = append(res.Pearson, r)
		res.BestMs = append(res.BestMs, best)
		res.PoolSize = append(res.PoolSize, len(cands))
		t.AddRow(fmt.Sprintf("%.2f", slack), fmt.Sprintf("%d", len(cands)),
			report.F4(r), report.Ms(best))
	}
	return res, report.Section("Ablation: utilization slack", t.Render()), nil
}
