package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bettertogether/internal/apps/alexnet"
	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
	"bettertogether/internal/solver"
)

func pixelOctreeOptimizer(t *testing.T) *Optimizer {
	t.Helper()
	app := octree.NewApplication(8192, octree.UniformGen{})
	dev := soc.NewPixel7a()
	tabs := profiler.ProfileBoth(app, dev, profiler.Config{Seed: 1})
	return New(app, dev, tabs)
}

func TestCandidatesValidAndRanked(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	for _, strat := range []Strategy{BetterTogether, LatencyOnlyHeavy, LatencyOnlyIsolated} {
		cands := o.Candidates(strat)
		if len(cands) == 0 {
			t.Fatalf("%v: no candidates", strat)
		}
		if len(cands) > DefaultK {
			t.Fatalf("%v: %d candidates > K", strat, len(cands))
		}
		seen := map[string]bool{}
		for i, c := range cands {
			if err := c.Schedule.Validate(7, o.Device.Classes()); err != nil {
				t.Errorf("%v candidate %d: %v", strat, i, err)
			}
			if seen[c.Schedule.Key()] {
				t.Errorf("%v: duplicate candidate %s (blocking clauses broken)", strat, c.Schedule)
			}
			seen[c.Schedule.Key()] = true
			if i > 0 && cands[i].Predicted < cands[i-1].Predicted {
				t.Errorf("%v: ranking not ascending", strat)
			}
			if c.Predicted <= 0 {
				t.Errorf("%v candidate %d: predicted %v", strat, i, c.Predicted)
			}
		}
	}
}

func TestPredictionMatchesTable(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	for _, strat := range []Strategy{BetterTogether, LatencyOnlyIsolated} {
		tab := o.table(strat)
		for _, c := range o.Candidates(strat) {
			if got := tab.PredictLatency(c.Schedule); absRel(got, c.Predicted) > 1e-12 {
				t.Fatalf("%v: candidate prediction %v != table prediction %v", strat, c.Predicted, got)
			}
			if got := tab.PredictGapness(c.Schedule); absRel(got+1, c.Gap+1) > 1e-9 {
				t.Fatalf("%v: gap mismatch %v vs %v", strat, c.Gap, got)
			}
		}
	}
}

func absRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}

func TestBetterTogetherFiltersUnbalancedSchedules(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	bt := o.Candidates(BetterTogether)
	for _, c := range bt {
		if !(c.Gap <= o.slack()*c.Predicted+1e-12 || c.Gap <= bestGap(o)+1e-12) {
			t.Errorf("candidate %s gap %.3g exceeds utilization filter (pred %.3g)",
				c.Schedule, c.Gap, c.Predicted)
		}
	}
	// Multi-chunk candidates must appear: a single-chunk schedule has
	// zero gap but no pipelining. The top BT candidate should pipeline.
	multi := 0
	for _, c := range bt {
		if len(c.Schedule.Chunks()) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no pipelined candidates survived the filter")
	}
}

func bestGap(o *Optimizer) float64 {
	cands := o.Candidates(BetterTogether)
	g := cands[0].Gap
	for _, c := range cands {
		if c.Gap < g {
			g = c.Gap
		}
	}
	return g
}

func TestStrategiesDisagree(t *testing.T) {
	// The isolated-table strategy must rank differently from the
	// interference-aware ones on a device with strong quirks — otherwise
	// Figs. 5 and 6 would be vacuous.
	o := pixelOctreeOptimizer(t)
	bt := o.Candidates(BetterTogether)
	iso := o.Candidates(LatencyOnlyIsolated)
	same := true
	for i := range bt {
		if i >= len(iso) || !bt[i].Schedule.Equal(iso[i].Schedule) {
			same = false
			break
		}
	}
	if same {
		t.Error("isolated and interference-aware rankings identical")
	}
}

func TestAutotuneSelectsMeasuredBest(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	cands := o.Candidates(BetterTogether)
	res, err := o.Autotune(cands, pipeline.Options{Tasks: 15, Warmup: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != len(cands) {
		t.Fatalf("measured %d of %d", len(res.Measured), len(cands))
	}
	for i, m := range res.Measured {
		if m <= 0 {
			t.Errorf("candidate %d measured %v", i, m)
		}
		if m < res.Measured[res.BestIndex] {
			t.Errorf("BestIndex %d not minimal (candidate %d is %v < %v)",
				res.BestIndex, i, m, res.Measured[res.BestIndex])
		}
	}
}

// materializedCandidates is the reference semantics of Candidates: take
// every schedule (an unbounded TopK), find the minimum gapness among
// them, filter, sort by (TMax, Key) and truncate to K.
func materializedCandidates(o *Optimizer, strategy Strategy) []Candidate {
	tab := o.table(strategy)
	prob := &solver.Problem{N: len(tab.Stages), M: len(tab.PUs), Time: tab.Latency}
	pool := solver.TopK(prob, math.MaxInt32, nil, nil)
	if strategy == BetterTogether {
		minGap := math.Inf(1)
		for _, s := range pool {
			minGap = math.Min(minGap, s.Gap())
		}
		slack := o.slack()
		kept := pool[:0]
		for _, s := range pool {
			if s.Gap() <= minGap+gapEps || s.Gap() <= slack*s.TMax {
				kept = append(kept, s)
			}
		}
		pool = kept
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].TMax != pool[b].TMax {
			return pool[a].TMax < pool[b].TMax
		}
		return solver.Key(pool[a].Assign) < solver.Key(pool[b].Assign)
	})
	if len(pool) > o.k() {
		pool = pool[:o.k()]
	}
	out := make([]Candidate, len(pool))
	for i, s := range pool {
		out[i] = Candidate{Schedule: toSchedule(tab, s.Assign), Predicted: s.TMax, Gap: s.Gap()}
	}
	return out
}

func TestCandidatesMatchMaterializedReference(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	for _, k := range []int{1, 5, 20, 500} {
		o.K = k
		for _, strat := range []Strategy{BetterTogether, LatencyOnlyHeavy, LatencyOnlyIsolated} {
			got := o.Candidates(strat)
			want := materializedCandidates(o, strat)
			if len(got) != len(want) {
				t.Fatalf("%v K=%d: %d candidates, want %d", strat, k, len(got), len(want))
			}
			for i := range want {
				if !got[i].Schedule.Equal(want[i].Schedule) ||
					got[i].Predicted != want[i].Predicted || got[i].Gap != want[i].Gap {
					t.Fatalf("%v K=%d rank %d: got %s (%v, %v), want %s (%v, %v)",
						strat, k, i, got[i].Schedule, got[i].Predicted, got[i].Gap,
						want[i].Schedule, want[i].Predicted, want[i].Gap)
				}
			}
		}
	}
}

func TestOptimizerZeroValuesHonored(t *testing.T) {
	o := pixelOctreeOptimizer(t)

	// An explicit K = 0 yields an empty pool, not the default 20.
	o.K = 0
	for _, strat := range []Strategy{BetterTogether, LatencyOnlyHeavy, LatencyOnlyIsolated} {
		if got := o.Candidates(strat); len(got) != 0 {
			t.Errorf("%v: K=0 returned %d candidates", strat, len(got))
		}
	}
	// Negative still selects the default.
	o.K = -1
	if got := o.Candidates(BetterTogether); len(got) == 0 || len(got) > DefaultK {
		t.Errorf("K=-1: %d candidates, want 1..%d", len(got), DefaultK)
	}

	// An explicit UtilSlack = 0 admits only minimum-gapness schedules.
	o.K = DefaultK
	o.UtilSlack = 0
	zero := o.Candidates(BetterTogether)
	if len(zero) == 0 {
		t.Fatal("UtilSlack=0 returned no candidates (min-gap schedule must pass)")
	}
	minGap := zero[0].Gap
	for _, c := range zero {
		if c.Gap < minGap {
			minGap = c.Gap
		}
	}
	for _, c := range zero {
		if c.Gap > minGap+gapEps {
			t.Errorf("UtilSlack=0 admitted gap %v > optimum %v", c.Gap, minGap)
		}
	}
	// The default slack admits more than the zero-slack pool on this
	// problem — proving 0 was not silently replaced by 0.40.
	o.UtilSlack = -1
	if def := o.Candidates(BetterTogether); len(def) <= len(zero) {
		t.Errorf("default slack pool (%d) not larger than zero-slack pool (%d)", len(def), len(zero))
	}
}

func TestAutotuneParallelMatchesSerial(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	cands := o.Candidates(BetterTogether)
	opts := pipeline.Options{Tasks: 12, Warmup: 2, Seed: 17}

	o.workers = 1
	serial, err := o.Autotune(cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.workers = 8
	par, err := o.Autotune(cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.BestIndex != serial.BestIndex {
		t.Errorf("BestIndex %d != serial %d", par.BestIndex, serial.BestIndex)
	}
	for i := range cands {
		if par.Measured[i] != serial.Measured[i] || par.Energy[i] != serial.Energy[i] {
			t.Errorf("candidate %d: parallel (%v, %v) != serial (%v, %v)",
				i, par.Measured[i], par.Energy[i], serial.Measured[i], serial.Energy[i])
		}
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	cands, tune, best, err := o.Optimize(BetterTogether, pipeline.Options{Tasks: 10, Warmup: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || tune.BestIndex < 0 {
		t.Fatal("optimize returned nothing")
	}
	if !best.Schedule.Equal(cands[tune.BestIndex].Schedule) {
		t.Error("best candidate mismatch")
	}
}

func TestBetterTogetherBeatsHomogeneousOnOctreePixel(t *testing.T) {
	// The headline claim on its friendliest case: the heterogeneous
	// schedule must beat both homogeneous baselines for Octree on the
	// Pixel (paper: 8.4x over GPU-only).
	o := pixelOctreeOptimizer(t)
	opts := pipeline.Options{Tasks: 20, Warmup: 5, Seed: 21}
	_, _, best, err := o.Optimize(BetterTogether, opts)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s core.Schedule) float64 {
		plan, err := pipeline.NewPlan(o.App, o.Device, s)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.SimEngine{}.Run(context.Background(), plan, opts).PerTask
	}
	bt := run(best.Schedule)
	gpu := run(core.NewUniformSchedule(len(o.App.Stages), core.ClassGPU))
	cpu := run(core.NewUniformSchedule(len(o.App.Stages), core.ClassBig))
	if bt >= gpu {
		t.Errorf("BT %.3gms !< GPU-only %.3gms", bt*1e3, gpu*1e3)
	}
	if bt >= cpu {
		t.Errorf("BT %.3gms !< CPU-only %.3gms", bt*1e3, cpu*1e3)
	}
}

func TestOptimizerOnTwoClassDevice(t *testing.T) {
	// The Jetson has only cpu+gpu: the machinery must still produce
	// schedules (the paper's hardest case for heterogeneity gains).
	app := alexnet.NewSparse(1, 2)
	dev := soc.NewJetson()
	tabs := profiler.ProfileBoth(app, dev, profiler.Config{Seed: 2})
	o := New(app, dev, tabs)
	cands := o.Candidates(BetterTogether)
	if len(cands) == 0 {
		t.Fatal("no candidates on Jetson")
	}
	for _, c := range cands {
		if err := c.Schedule.Validate(9, dev.Classes()); err != nil {
			t.Error(err)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if BetterTogether.String() == "" || LatencyOnlyHeavy.String() == "" ||
		LatencyOnlyIsolated.String() == "" || Strategy(9).String() == "" {
		t.Error("empty strategy names")
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveLatency.String() != "latency" || ObjectiveEnergy.String() != "energy" ||
		ObjectiveEDP.String() != "edp" || Objective(9).String() == "" {
		t.Error("objective names wrong")
	}
}

func TestAutotuneObjectives(t *testing.T) {
	o := pixelOctreeOptimizer(t)
	cands := o.Candidates(BetterTogether)
	opts := pipeline.Options{Tasks: 15, Warmup: 3, Seed: 31}

	o.Objective = ObjectiveLatency
	lat, err := o.Autotune(cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.Objective = ObjectiveEnergy
	eng, err := o.Autotune(cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	o.Objective = ObjectiveEDP
	edp, err := o.Autotune(cands, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Each winner must actually minimize its metric over the pool.
	for i := range cands {
		if lat.Measured[i] < lat.Measured[lat.BestIndex] {
			t.Errorf("latency objective missed candidate %d", i)
		}
		if eng.Energy[i] < eng.Energy[eng.BestIndex] {
			t.Errorf("energy objective missed candidate %d", i)
		}
		if edp.Energy[i]*edp.Measured[i] < edp.Energy[edp.BestIndex]*edp.Measured[edp.BestIndex] {
			t.Errorf("EDP objective missed candidate %d", i)
		}
	}
	// Cross-objective dominance: the energy winner uses no more energy
	// than the latency winner; the latency winner is no slower than the
	// energy winner.
	if eng.Energy[eng.BestIndex] > lat.Energy[lat.BestIndex] {
		t.Error("energy objective found a worse-energy schedule")
	}
	if lat.Measured[lat.BestIndex] > eng.Measured[eng.BestIndex] {
		t.Error("latency objective found a slower schedule")
	}
	// Energy must be populated everywhere.
	for i, e := range lat.Energy {
		if e <= 0 {
			t.Errorf("candidate %d missing energy", i)
		}
	}
}

// Candidates(BetterTogether) reads only the heavy table: on a Tables
// holding profiler.Heavy alone it ranks exactly what it ranks on the full
// ProfileBoth tables, which is what lets the runtime skip the isolated
// profile when it plans. The grid covers every device, three apps, four
// seeds, nil and random BaseEnvs, and a pure Adjust.
func TestCandidatesHeavyOnlyMatchesBothTables(t *testing.T) {
	vis, err := vision.NewApplication(64, 48)
	if err != nil {
		t.Fatal(err)
	}
	apps := []*core.Application{octree.NewApplication(2048, octree.UniformGen{}), alexnet.NewSparse(1, 1), vis}
	scale := func(stage string, pu core.PUClass, seconds float64) float64 {
		return seconds * (1 + float64(len(stage)%5)/8 + float64(len(pu))/64)
	}
	rng := rand.New(rand.NewSource(4))
	for _, dev := range soc.Catalog() {
		for _, app := range apps {
			for _, seed := range []int64{0, 1, -7, 88} {
				for e := range 3 {
					var env soc.Env
					if e > 0 {
						env = soc.Env{}
						for _, c := range dev.Classes() {
							if e == 2 || rng.Intn(2) == 0 {
								env[c] = soc.Load{MemIntensity: rng.Float64()}
							}
						}
					}
					for _, adjust := range []profiler.Adjust{nil, scale} {
						cfg := profiler.Config{Reps: 4, Seed: seed, BaseEnv: env, Adjust: adjust}
						label := fmt.Sprintf("%s/%s seed=%d env=%d adjust=%v", dev.Name, app.Name, seed, e, adjust != nil)
						want := New(app, dev, profiler.ProfileBoth(app, dev, cfg)).Candidates(BetterTogether)
						got := New(app, dev, profiler.Tables{Heavy: profiler.Heavy(app, dev, cfg)}).Candidates(BetterTogether)
						if len(want) == 0 || len(got) != len(want) {
							t.Fatalf("%s: %d candidates, want %d (> 0)", label, len(got), len(want))
						}
						for i := range want {
							if !got[i].Schedule.Equal(want[i].Schedule) ||
								math.Float64bits(got[i].Predicted) != math.Float64bits(want[i].Predicted) ||
								math.Float64bits(got[i].Gap) != math.Float64bits(want[i].Gap) {
								t.Fatalf("%s rank %d: %+v, want %+v", label, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
