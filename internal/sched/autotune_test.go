package sched

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// stageDoneCounter is a concurrency-safe sink counting StageDone events.
type stageDoneCounter struct{ n atomic.Int64 }

func (s *stageDoneCounter) Emit(e obs.Event) {
	if e.Kind == obs.KindStageDone {
		s.n.Add(1)
	}
}

// TestAutotuneConcurrentMatchesIndependentRuns pins autotuning's shared
// noise sequence against its oracle: every candidate's Measured and
// Energy are bit-equal to an independent SimEngine run of that
// candidate, and BestIndex is the in-order minimum over those runs — at
// 1 and 4 workers, with an events sink, a metrics collector or a
// timeline attached, under a BaseEnv, with defaulted task counts, and on
// a device without noise.
func TestAutotuneConcurrentMatchesIndependentRuns(t *testing.T) {
	app := octree.NewApplication(8192, octree.UniformGen{})
	quiet := soc.NewJetson()
	quiet.NoiseSigma = 0
	type tc struct {
		name    string
		dev     *soc.Device
		workers int
		obj     Objective
		opts    pipeline.Options
		events  bool
		metrics bool
		trace   bool
	}
	base := pipeline.Options{Tasks: 12, Warmup: 2, Seed: 17}
	with := func(f func(*pipeline.Options)) pipeline.Options {
		o := base
		f(&o)
		return o
	}
	cases := []tc{
		{name: "serial", dev: soc.NewPixel7a(), workers: 1, opts: base},
		{name: "pool", dev: soc.NewPixel7a(), workers: 4, opts: base},
		{name: "pool-events", dev: soc.NewPixel7a(), workers: 4, opts: base, events: true},
		{name: "serial-metrics-events", dev: soc.NewOnePlus11(), workers: 1, opts: base, events: true, metrics: true},
		// One metrics collector or timeline is shared by every candidate
		// run; Autotune must not write it from several workers.
		{name: "pool-metrics", dev: soc.NewPixel7a(), workers: 4, opts: base, metrics: true},
		{name: "pool-trace", dev: soc.NewPixel7a(), workers: 4, opts: base, trace: true},
		{name: "pool-baseenv-edp", dev: soc.NewJetson(), workers: 4, obj: ObjectiveEDP,
			opts: with(func(o *pipeline.Options) { o.BaseEnv = soc.Env{"gpu": {MemIntensity: 0.3}, "npu": {MemIntensity: 0.5}} })},
		{name: "pool-defaults", dev: soc.NewPixel7a(), workers: 4,
			opts: with(func(o *pipeline.Options) { o.Tasks, o.Warmup = 0, -3 })},
		{name: "pool-noiseless", dev: quiet, workers: 4, opts: base},
		{name: "serial-noiseless", dev: quiet, workers: 1, opts: base},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := New(app, c.dev, profiler.ProfileBoth(app, c.dev, profiler.Config{Reps: 8, Seed: 5}))
			o.K, o.workers, o.Objective = 8, c.workers, c.obj
			cands := o.Candidates(BetterTogether)
			if len(cands) < 2 {
				t.Fatalf("%d candidates", len(cands))
			}
			opts := c.opts
			var sink *stageDoneCounter
			if c.events {
				sink = &stageDoneCounter{}
				opts.Events = sink
			}
			var m *metrics.Pipeline
			if c.metrics {
				// Sized for any candidate: at most one chunk per stage and
				// one pool per class.
				m = metrics.New(len(app.Stages), len(app.Stages), len(c.dev.PUs))
				opts.Metrics = m
			}
			var tl *trace.Timeline
			if c.trace {
				tl = &trace.Timeline{}
				opts.Trace = tl
			}
			got, err := o.Autotune(cands, opts)
			if err != nil {
				t.Fatal(err)
			}

			best := -1
			var bestScore float64
			for i, cand := range cands {
				plan, err := pipeline.NewPlan(app, c.dev, cand.Schedule)
				if err != nil {
					t.Fatal(err)
				}
				r := pipeline.SimEngine{}.Run(context.Background(), plan, c.opts)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if math.Float64bits(got.Measured[i]) != math.Float64bits(r.PerTask) ||
					math.Float64bits(got.Energy[i]) != math.Float64bits(r.EnergyPerTaskJ) {
					t.Errorf("candidate %d: autotune (%v, %v), independent run (%v, %v)",
						i, got.Measured[i], got.Energy[i], r.PerTask, r.EnergyPerTaskJ)
				}
				if s := o.score(r.PerTask, r.EnergyPerTaskJ); best < 0 || s < bestScore {
					best, bestScore = i, s
				}
			}
			if got.BestIndex != best {
				t.Errorf("BestIndex %d, independent runs pick %d", got.BestIndex, best)
			}

			tasks, warmup := c.opts.Tasks, c.opts.Warmup
			if tasks <= 0 {
				tasks = 30
			}
			warmup = max(warmup, 0)
			stageRuns := int64(len(cands) * (tasks + warmup) * len(app.Stages))
			if sink != nil && sink.n.Load() != stageRuns {
				t.Errorf("sink saw %d StageDone events, want %d", sink.n.Load(), stageRuns)
			}
			if tl != nil && int64(len(tl.Spans)) != stageRuns {
				t.Errorf("trace holds %d spans, want %d", len(tl.Spans), stageRuns)
			}
			if m != nil {
				var n int64
				for s := 0; s < m.NumStages(); s++ {
					n += int64(m.Stage(s).Dispatches())
				}
				if n != stageRuns {
					t.Errorf("metrics recorded %d stage dispatches, want %d", n, stageRuns)
				}
			}
		})
	}
}
