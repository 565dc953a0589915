// Command btbench regenerates the paper's tables and figures on the
// simulated device fleet.
//
// Usage:
//
//	btbench                  # run every experiment but drift (-exp all)
//	btbench -exp fig4        # one experiment: e0, table1, table2, fig1,
//	                         # table3, fig4, fig5, fig6, table4, fig7,
//	                         # abl-dp, abl-k, abl-buffers, abl-reps,
//	                         # abl-slack, ext-energy, ext-vision, drift
//	btbench -parallel        # fan experiment grids over GOMAXPROCS
//	                         # workers; output is identical to serial
//	btbench -exp fig5 -cpuprofile cpu.out -memprofile mem.out
//	                         # profile a run with go tool pprof
//
// -exp all leaves out drift, the online-profiling drift-convergence
// experiment: make drift-smoke runs it twice as its own check, and the
// -exp all report stays the paper's tables and figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bettertogether/internal/cli"
	"bettertogether/internal/experiments"
	"bettertogether/internal/obs"
	"bettertogether/internal/report"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e0, table1, table2, fig1, table3, fig4, fig5, fig6, table4, fig7, abl-dp, abl-k, abl-buffers, abl-reps, abl-slack, ext-energy, ext-vision, drift), or all: every id but drift, which make drift-smoke checks on its own")
	parallel := flag.Bool("parallel", false, "fan experiment grids across GOMAXPROCS-bounded workers (deterministic: output matches the serial run)")
	timing := flag.Bool("time", false, "report per-experiment and total wall-clock to stderr")
	listen := flag.String("listen", "", "serve liveness, pprof and per-experiment progress events over HTTP while the suite runs")
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()

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
		srv, err := obs.Serve(*listen, obs.ServerConfig{
			Stream:  stream,
			Metrics: []func(io.Writer) error{stream.PromEvents},
		})
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
	stopProf, err := prof.Start()
	cli.FatalIf("btbench", err)
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		mark(obs.KindRunStart, strings.TrimSpace(id), 0)
		if err := run(s, strings.TrimSpace(id)); err != nil {
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

func run(s *experiments.Suite, id string) error {
	switch id {
	case "drift":
		// Deterministic (seeded, virtual time) but kept out of -exp all:
		// make drift-smoke runs it on its own. The gates make the
		// experiment a CI smoke: a quiet oracle, a detected injection,
		// convergence.
		res, body, err := experiments.DriftConvergence(1)
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
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
