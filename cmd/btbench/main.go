// Command btbench regenerates the paper's tables and figures on the
// simulated device fleet.
//
// Usage:
//
//	btbench                  # run every experiment
//	btbench -exp fig4        # one experiment: e0, table1, table2, fig1,
//	                         # table3, fig4, fig5, fig6, table4, fig7
//	btbench -parallel        # fan experiment grids over GOMAXPROCS
//	                         # workers; output is identical to serial
//	btbench -exp fig5 -cpuprofile cpu.out -memprofile mem.out
//	                         # profile a run with go tool pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bettertogether/internal/benchjson"
	"bettertogether/internal/cli"
	"bettertogether/internal/experiments"
	"bettertogether/internal/obs"
	"bettertogether/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (e0, table1, table2, fig1, table3, fig4, fig5, fig6, table4, fig7, abl-dp, abl-k, abl-buffers, abl-reps, ext-energy, churn, fleetscale, drift, all)")
	parallel := flag.Bool("parallel", false, "fan experiment grids across GOMAXPROCS-bounded workers (deterministic: output matches the serial run)")
	timing := flag.Bool("time", false, "report per-experiment and total wall-clock to stderr")
	listen := flag.String("listen", "", "serve liveness, pprof and per-experiment progress events over HTTP while the suite runs")
	benchJSON := flag.String("bench-json", "", "write churn benchmark samples to this path in github-action-benchmark shape")
	benchGate := flag.String("bench-gate", "", "compare churn samples against this baseline report and fail on regression")
	gateTol := flag.Float64("gate-tolerance", 10, "regression tolerance for -bench-gate, percent")
	churnRounds := flag.Int("churn-rounds", 0, "admit/drain rounds per churn mode (0 selects the default)")
	churnMinSpeedup := flag.Float64("churn-min-speedup", 0, "fail unless the churn cache speedup reaches this factor (0 disables)")
	planner := cli.AddCacheFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	// Same shared validation path as btrun and btfleet. -sched-cache
	// (the capacity of churn's cache-on mode) and -cache-bucket are the
	// only planner flags an experiment reads.
	cli.FatalIf("btbench", planner.Validate())

	s := experiments.NewSuite()
	if *parallel {
		s.Workers = -1 // GOMAXPROCS-bounded
	}
	// With -listen, long suite runs become observable: /healthz answers
	// while experiments grind, /debug/pprof profiles them, and /events
	// carries one run-start/run-end marker pair per experiment.
	var stream *obs.Stream
	if *listen != "" {
		stream = obs.NewStream(obs.DefaultStreamCapacity)
		srv, err := obs.Serve(*listen, obs.ServerConfig{Stream: stream})
		cli.FatalIf("btbench", err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "btbench: observability server on http://%s/\n", srv.Addr())
	}
	mark := func(kind obs.Kind, id string, d time.Duration) {
		if stream == nil {
			return
		}
		e := obs.NewEvent(kind)
		e.Session, e.Detail, e.Dur = "btbench", id, d
		stream.Emit(e)
	}
	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"table1", "table2", "fig1", "e0", "table3", "fig4", "fig5", "fig6", "table4", "fig7", "abl-dp", "abl-k", "abl-buffers", "abl-reps", "abl-slack", "ext-energy", "ext-vision"}
	}
	churn := churnOpts{
		rounds:     *churnRounds,
		minSpeedup: *churnMinSpeedup,
		jsonPath:   *benchJSON,
		gatePath:   *benchGate,
		tolerance:  *gateTol,
	}
	stopProf, err := prof.Start()
	cli.FatalIf("btbench", err)
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		mark(obs.KindRunStart, strings.TrimSpace(id), 0)
		if err := run(s, strings.TrimSpace(id), churn, planner); err != nil {
			cli.Fatalf("btbench", "%s: %v", id, errors.Join(err, stopProf()))
		}
		mark(obs.KindRunEnd, strings.TrimSpace(id), time.Since(t0))
		if *timing {
			fmt.Fprintf(os.Stderr, "btbench: %-12s %8.1f ms\n", id, time.Since(t0).Seconds()*1e3)
		}
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "btbench: total %.1f ms (parallel=%v)\n",
			time.Since(start).Seconds()*1e3, *parallel)
	}
	cli.FatalIf("btbench", stopProf())
}

// churnOpts carries the churn experiment's flags into run. The churn
// experiment is excluded from -exp all: its timing output is wall-clock
// dependent, which would break the suite's deterministic-output
// contract (and the bench-suite golden diff).
type churnOpts struct {
	rounds     int
	minSpeedup float64
	jsonPath   string
	gatePath   string
	tolerance  float64
}

// runChurn runs the admission-churn benchmark, optionally writing the
// github-action-benchmark JSON, gating against a committed baseline,
// and enforcing a minimum cache speedup.
func runChurn(o churnOpts, planner *cli.PlannerFlags) error {
	res, body, err := experiments.Churn(experiments.ChurnConfig{
		Rounds:        o.rounds,
		CacheCapacity: planner.CacheCapacity,
		Bucket:        planner.CacheBucket,
	})
	if err != nil {
		return err
	}
	fmt.Print(body)
	report := benchjson.NewReport()
	report.Benches = res.Benches()
	if o.jsonPath != "" {
		if err := benchjson.Write(o.jsonPath, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "btbench: wrote %s\n", o.jsonPath)
	}
	if o.gatePath != "" {
		base, err := benchjson.Read(o.gatePath)
		if err != nil {
			return err
		}
		if violations := benchjson.Compare(base, report, o.tolerance); len(violations) > 0 {
			return fmt.Errorf("benchmark regression vs %s:\n  %s",
				o.gatePath, strings.Join(violations, "\n  "))
		}
		fmt.Fprintf(os.Stderr, "btbench: bench gate vs %s passed (tolerance %.0f%%)\n", o.gatePath, o.tolerance)
	}
	if o.minSpeedup > 0 && res.Speedup < o.minSpeedup {
		return fmt.Errorf("churn cache speedup %.1fx below required %.1fx", res.Speedup, o.minSpeedup)
	}
	return nil
}

// runFleetScale runs the placement-throughput scaling sweep and
// optionally writes its samples as github-action-benchmark JSON
// (BENCH_9.json in CI). The values are wall-clock measurements, so no
// -bench-gate comparison applies — the report is a trajectory artifact.
func runFleetScale(o churnOpts) error {
	res, body, err := experiments.FleetScale(experiments.FleetScaleConfig{Seed: 1})
	if err != nil {
		return err
	}
	fmt.Print(body)
	if o.jsonPath != "" {
		rep := benchjson.NewReport()
		rep.Benches = res.Benches()
		if err := benchjson.Write(o.jsonPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "btbench: wrote %s\n", o.jsonPath)
	}
	return nil
}

func run(s *experiments.Suite, id string, churn churnOpts, planner *cli.PlannerFlags) error {
	switch id {
	case "churn":
		return runChurn(churn, planner)
	case "drift":
		// Deterministic (seeded, virtual time) but kept out of -exp all to
		// hold the bench-suite golden stable. The gates make the experiment
		// a CI smoke: a quiet oracle, a detected injection, convergence.
		res, body, err := experiments.DriftConvergence(experiments.DriftConvergenceConfig{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Print(body)
		if res.Oracle.DriftReplans != 0 {
			return fmt.Errorf("drift: oracle run drift-replanned %d times, want 0", res.Oracle.DriftReplans)
		}
		if res.Distorted.DriftReplans < 1 {
			return fmt.Errorf("drift: distorted run never drift-replanned")
		}
		if !res.Converged {
			return fmt.Errorf("drift: distorted run finished on %s, oracle %s",
				res.Distorted.Final, res.Oracle.Final)
		}
	case "table1":
		fmt.Print(report.Section("Table 1", s.Table1()))
	case "table2":
		fmt.Print(report.Section("Table 2", s.Table2()))
	case "fig1":
		_, body, err := s.Fig1()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "e0":
		_, body, err := s.IntroClaim()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "table3":
		_, body, err := s.Table3()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "fig4":
		_, _, body, err := s.Fig4()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "fig5":
		_, body, err := s.Fig5()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "fig6":
		_, body, err := s.Fig6()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "table4":
		_, body, err := s.Table4()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "fig7":
		_, body, err := s.Fig7()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "abl-dp":
		_, body, err := s.AblationDataParallel()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "abl-k":
		_, body, err := s.AblationK()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "abl-buffers":
		_, body, err := s.AblationBuffers()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "abl-reps":
		_, body, err := s.AblationReps()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "abl-slack":
		_, body, err := s.AblationSlack()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "ext-vision":
		_, body, err := s.ExtVision()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "ext-energy":
		_, body, err := s.ExtEnergy()
		if err != nil {
			return err
		}
		fmt.Print(body)
	case "fleetscale":
		// Wall-clock dependent (it times the placement sweep itself), so
		// it records the BENCH_9.json trajectory without a CI gate and
		// stays out of -exp all.
		return runFleetScale(churn)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
