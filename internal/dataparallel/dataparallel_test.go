package dataparallel

import (
	"math"
	"testing"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
)

func setup(t *testing.T) (*core.Application, *soc.Device, profiler.Tables) {
	t.Helper()
	app := octree.NewApplication(8192, octree.UniformGen{})
	dev := soc.NewPixel7a()
	tabs := profiler.ProfileBoth(app, dev, profiler.Config{Seed: 5})
	return app, dev, tabs
}

func TestSharesNormalizedAndSpeedOrdered(t *testing.T) {
	_, _, tabs := setup(t)
	shares := Shares(tabs.Heavy)
	for i, row := range shares {
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("stage %d: negative share", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("stage %d: shares sum to %v", i, sum)
		}
		// Faster PUs get larger shares.
		for a := range row {
			for b := range row {
				ta, tb := tabs.Heavy.Latency[i][a], tabs.Heavy.Latency[i][b]
				if ta < tb && row[a] < row[b] {
					t.Fatalf("stage %d: slower PU got larger share", i)
				}
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	app, dev, tabs := setup(t)
	a := Simulate(app, dev, tabs.Heavy, Options{Tasks: 10, Warmup: 2, Seed: 3})
	b := Simulate(app, dev, tabs.Heavy, Options{Tasks: 10, Warmup: 2, Seed: 3})
	if a != b {
		t.Error("same seed, different results")
	}
	if a <= 0 {
		t.Errorf("measured %v", a)
	}
}

func TestPipelineBeatsDataParallelOnOctreePixel(t *testing.T) {
	// The paper's Sec. 1 argument: data-parallel forces the GPU to run a
	// slice of sorting and the little cores a slice of everything;
	// pipeline scheduling avoids that. On the octree workload the BT
	// pipeline must win.
	app, dev, tabs := setup(t)
	dp := Simulate(app, dev, tabs.Heavy, Options{Tasks: 20, Warmup: 5, Seed: 9})

	opt := sched.New(app, dev, tabs)
	opts := pipeline.Options{Tasks: 20, Warmup: 5, Seed: 9}
	_, tune, _, err := opt.Optimize(sched.BetterTogether, opts)
	if err != nil {
		t.Fatal(err)
	}
	bt := tune.Measured[tune.BestIndex]
	if bt >= dp {
		t.Errorf("BT pipeline %.4gms !< data-parallel %.4gms", bt*1e3, dp*1e3)
	}
}

func TestScaleCost(t *testing.T) {
	c := core.CostSpec{FLOPs: 100, Bytes: 40, WorkItems: 10,
		ParallelFraction: 0.9, Divergence: 0.5, Irregularity: 0.3, Dispatches: 2}
	s := scaleCost(c, 0.25)
	if s.FLOPs != 25 || s.Bytes != 10 || s.WorkItems != 2.5 {
		t.Errorf("work terms wrong: %+v", s)
	}
	if s.ParallelFraction != 0.9 || s.Divergence != 0.5 || s.Irregularity != 0.3 || s.Dispatches != 2 {
		t.Errorf("structural terms must not scale: %+v", s)
	}
}
