package bettertogether

// One benchmark per paper artifact (tables and figures of the
// evaluation, Sec. 5, plus the Sec. 1 motivating claim). Each iteration
// regenerates the artifact end to end — profiling, optimization and
// simulated execution included — so the reported time is the cost of the
// full reproduction pipeline, and the printed metrics let the bench
// double as a regression gate on the paper-shape results.
//
// The mapping to the paper is indexed in DESIGN.md §4; measured-vs-paper
// values are recorded in EXPERIMENTS.md.

import (
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/experiments"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

func BenchmarkIntroClaim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.IntroClaim()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.IsolatedErrPct, "iso-err-%")
			b.ReportMetric(res.BTPearson, "bt-pearson")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// sort stage: GPU vs big latency ratio (paper: GPU poor).
			b.ReportMetric(res.Seconds[0][3]/res.Seconds[0][0], "sort-gpu/big")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			c := res.Cell("pixel7a", "octree-uniform")
			b.ReportMetric(c.GPU/c.CPU, "tree-pixel-gpu/cpu")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, _, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Geomean, "geomean-speedup")
			b.ReportMetric(res.Max, "max-speedup")
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BT.Pearson, "bt-pearson")
			b.ReportMetric(res.Isolated.Pearson, "iso-pearson")
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BTAvg, "bt-mean-corr")
			b.ReportMetric(res.IsolatedAvg, "iso-mean-corr")
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.AutotuneGain, "autotune-gain")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Ratios["pixel7a"]["gpu"], "pixel-gpu-ratio")
			b.ReportMetric(res.Ratios["jetson-lp"]["gpu"], "lp-gpu-ratio")
		}
	}
}

// BenchmarkFullEvaluation regenerates every artifact in sequence — the
// paper's entire Sec. 5 in one number.
func BenchmarkFullEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		if _, _, err := s.Fig1(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.IntroClaim(); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Table4(); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks — the design-choice sweeps DESIGN.md calls out.

func BenchmarkAblationDataParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.AblationDataParallel()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.GeomeanDPOverBT, "dp/bt-geomean")
		}
	}
}

func BenchmarkAblationK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.AblationK()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Measured[0]/res.Measured[len(res.Measured)-1], "k40-vs-k1-gain")
		}
	}
}

func BenchmarkAblationBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.AblationBuffers()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PerTask[0]/res.PerTask[len(res.PerTask)-1], "pipelining-speedup")
		}
	}
}

func BenchmarkAblationReps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.AblationReps()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Pearson[len(res.Pearson)-1], "reps30-pearson")
		}
	}
}

func BenchmarkExtEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.ExtEnergy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.GeomeanSavingsVsBest, "base/bt-energy")
		}
	}
}

func BenchmarkAblationSlack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.AblationSlack()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.BestMs[0]/res.BestMs[2], "tight-vs-default")
		}
	}
}

func BenchmarkExtVision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		res, _, err := s.ExtVision()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Geomean, "vision-geomean")
		}
	}
}

// BenchmarkAppBuild times resolving each evaluation application by name
// — for AlexNet that is generating, pruning and compressing its weights —
// the cost a fleet replay pays once per distinct app.
func BenchmarkAppBuild(b *testing.B) {
	for _, name := range btapps.Names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := btapps.ByName(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileBoth times one BT-Profiler call in both modes: the
// paper's protocol (30 repetitions, device to itself) and the runtime's
// admission re-plan (8 repetitions under a resident's interference).
func BenchmarkProfileBoth(b *testing.B) {
	dense, err := btapps.ByName("alexnet-dense")
	if err != nil {
		b.Fatal(err)
	}
	tree, err := btapps.ByName("octree")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		app  *core.Application
		dev  *soc.Device
		cfg  profiler.Config
	}{
		{"paper", dense, soc.NewPixel7a(), profiler.Config{Reps: 30, Seed: 1}},
		{"runtime", tree, soc.NewJetson(), profiler.Config{Reps: 8, Seed: 1, BaseEnv: soc.Env{"gpu": {MemIntensity: 0.3}}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				profiler.ProfileBoth(c.app, c.dev, c.cfg)
			}
		})
	}
}

// BenchmarkAutotune times optimization level three in the runtime's
// admission shape: K=8 candidates, each simulated for 12 tasks after 2
// warmup.
func BenchmarkAutotune(b *testing.B) {
	app, err := btapps.ByName("octree")
	if err != nil {
		b.Fatal(err)
	}
	dev := soc.NewPixel7a()
	opt := sched.New(app, dev, profiler.ProfileBoth(app, dev, profiler.Config{Reps: 8, Seed: 1}))
	opt.K = 8
	cands := opt.Candidates(sched.BetterTogether)
	if len(cands) != 8 {
		b.Fatalf("%d candidates, want 8", len(cands))
	}
	opts := pipeline.Options{Tasks: 12, Warmup: 2, Seed: 1}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := opt.Autotune(cands, opts); err != nil {
			b.Fatal(err)
		}
	}
}
