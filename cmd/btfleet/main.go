// Command btfleet replays arrival traces over a fleet of simulated
// devices: a registry of catalog SoCs, interference-headroom-ranked
// placement with spillover, and a seeded arrival generator.
//
// Usage:
//
//	btfleet                                       # 3-node default fleet, bursty trace
//	btfleet -nodes pixel7a=2,jetson -arrivals 20 -pattern poisson -rate 0.5
//	btfleet -apps octree,vision -affinity vision=jetson
//	btfleet -emit-trace trace.json                # save the generated trace
//	btfleet -trace trace.json                     # replay a saved trace
//	btfleet -drain-node jetson/0 -drain-at 20     # cordon a node mid-replay, migrate its held sessions
//	btfleet -index-bands -1                       # exhaustive placement ranking (no banded index)
//	btfleet -json                                 # machine-readable replay result
//	btfleet -cpuprofile c.out -memprofile m.out   # profile the replay (go tool pprof)
//
// The replay is deterministic: one trace, one seed, one byte-identical
// report on every run. -max-rejections turns the rejection count into an
// exit code for CI gates.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"bettertogether/internal/cli"
	"bettertogether/internal/experiments"
	"bettertogether/internal/fleet"
	"bettertogether/internal/obs"
)

func main() {
	nodes := flag.String("nodes", "pixel7a,oneplus11,jetson", "registry spec: comma-separated <device> or <device>=<count> entries")
	pattern := flag.String("pattern", fleet.PatternBursty, "arrival pattern: poisson or bursty")
	arrivals := flag.Int("arrivals", 12, "trace length (generated traces)")
	rate := flag.Float64("rate", 1.0, "poisson arrival rate per virtual second")
	burst := flag.Int("burst", 3, "bursty: arrivals per cluster")
	burstEvery := flag.Float64("burst-every", 40, "bursty: seconds between clusters")
	apps := flag.String("apps", "octree,alexnet-sparse", "application mix, cycled in order")
	meanDwell := flag.Float64("mean-dwell", 5, "mean exponential dwell before departure, virtual seconds")
	tasks := flag.Int("tasks", 4, "stream tasks per session")
	seed := flag.Int64("seed", 1, "trace and node-runtime noise seed")
	tracePath := flag.String("trace", "", "replay this JSON trace instead of generating one")
	emitTrace := flag.String("emit-trace", "", "write the trace that was replayed to this file")
	affinity := flag.String("affinity", "", "placement affinity: comma-separated <app>=<device> pairs")
	bwHeadroom := flag.Float64("bw-headroom", 0, "per-node DRAM bandwidth headroom factor (0 = runtime default)")
	coreHeadroom := flag.Float64("core-headroom", 0, "per-node PU core headroom factor (0 = runtime default)")
	indexBands := flag.Int("index-bands", 0, "headroom bands in the placement index (0 = default, negative = exhaustive ranking)")
	drainNode := flag.String("drain-node", "", "drain this node mid-replay, migrating its held sessions (requires -drain-at)")
	drainAt := flag.Float64("drain-at", -1, "logical time of the -drain-node drain, virtual seconds")
	planner := cli.AddPlannerFlags(flag.CommandLine)
	tracing := cli.AddTraceFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "print the replay result as JSON instead of tables")
	listen := flag.String("listen", "", "serve observability HTTP after the replay (/metrics carries the bt_fleet_* families)")
	hold := flag.Duration("hold", 0, "with -listen: keep the server up this long after the replay finishes (for scrapers and CI probes)")
	maxRejections := flag.Int("max-rejections", -1, "exit 1 when more than this many arrivals are rejected (-1 = no gate)")
	flag.Parse()

	// Shared fail-fast knob validation with btrun and btbench: negative
	// or non-finite values would silently select a different policy than
	// the user asked for.
	cli.FatalIf("btfleet", planner.Validate())
	cli.FatalIf("btfleet", tracing.Validate())
	for _, v := range []struct {
		name string
		val  float64
	}{{"-bw-headroom", *bwHeadroom}, {"-core-headroom", *coreHeadroom}} {
		if v.val < 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			cli.Fatalf("btfleet", "%s must be a finite value >= 0 (0 selects the runtime default), got %v", v.name, v.val)
		}
	}
	if *drainNode != "" && (*drainAt < 0 || math.IsNaN(*drainAt) || math.IsInf(*drainAt, 0)) {
		cli.Fatalf("btfleet", "-drain-node requires -drain-at set to a finite time >= 0, got %v", *drainAt)
	}
	if *drainNode == "" && *drainAt >= 0 {
		cli.Fatalf("btfleet", "-drain-at %v has no effect without -drain-node", *drainAt)
	}

	specs, err := fleet.ParseNodeSpecs(*nodes)
	cli.FatalIf("btfleet", err)
	aff, err := fleet.ParseAffinity(*affinity)
	cli.FatalIf("btfleet", err)

	cfg := experiments.FleetReplayConfig{
		Nodes: specs,
		Gen: fleet.GenConfig{
			Pattern:    *pattern,
			Arrivals:   *arrivals,
			RatePerSec: *rate,
			Burst:      *burst,
			BurstEvery: *burstEvery,
			Apps:       splitList(*apps),
			MeanDwell:  *meanDwell,
			Tasks:      *tasks,
			Seed:       *seed,
		},
		BWHeadroom:    *bwHeadroom,
		CoreHeadroom:  *coreHeadroom,
		ReplanDelta:   planner.ReplanDelta,
		CacheCapacity: planner.CacheCapacity,
		CacheBucket:   planner.CacheBucket,
		Affinity:      aff,
		OnlineProf:    planner.OnlineProf(),
		IndexBands:    *indexBands,
		Seed:          *seed,
		SessionTrace:  tracing.Tracer(*seed),
		SLODeadline:   tracing.SLODeadline,
	}
	if *drainNode != "" {
		cfg.Replay = fleet.ReplayOptions{DrainNode: *drainNode, DrainAt: *drainAt}
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		cli.FatalIf("btfleet", err)
		tr, err := fleet.DecodeTrace(f)
		cli.FatalIf("btfleet", f.Close())
		cli.FatalIf("btfleet", err)
		cfg.Trace = tr
	}

	var stream *obs.Stream
	var srv *obs.Server
	if *listen != "" {
		stream = obs.NewStream(obs.DefaultStreamCapacity)
		cfg.Events = stream
	}

	stopProf, err := prof.Start()
	cli.FatalIf("btfleet", err)
	out, err := experiments.FleetReplay(cfg)
	cli.FatalIf("btfleet", errors.Join(err, stopProf()))

	if out.OnlineProfEnabled {
		fmt.Fprintf(os.Stderr, "btfleet: %s\n", cli.OnlineProfSummary(out.OnlineProf, true))
	}
	if out.SLOEnabled {
		fmt.Fprintf(os.Stderr, "btfleet: %s\n", cli.SLOSummary(out.SLO, true))
	}

	if *listen != "" {
		// The fleet is torn down after the replay, so serve the final
		// stats snapshot: scrapers and CI probes read the completed run.
		srvCfg := obs.ServerConfig{
			Stream: stream,
			Fleet:  func() obs.FleetStats { return out.Stats },
		}
		if out.OnlineProfEnabled {
			srvCfg.OnlineProf = func() obs.OnlineProfStats { return out.OnlineProf }
		}
		if out.SLOEnabled {
			srvCfg.SLO = func() obs.SLOStats { return out.SLO }
		}
		if cfg.SessionTrace != nil {
			srvCfg.Traces = cfg.SessionTrace.Handler()
		}
		srv, err = obs.Serve(*listen, srvCfg)
		cli.FatalIf("btfleet", err)
		fmt.Fprintf(os.Stderr, "btfleet: observability server on http://%s/\n", srv.Addr())
		defer srv.Close()
	}

	if *emitTrace != "" {
		f, err := os.Create(*emitTrace)
		cli.FatalIf("btfleet", err)
		err = out.Trace.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		cli.FatalIf("btfleet", err)
		fmt.Fprintf(os.Stderr, "btfleet: wrote trace to %s\n", *emitTrace)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cli.FatalIf("btfleet", enc.Encode(out.Result))
	} else {
		fmt.Print(out.Render())
	}

	if *maxRejections >= 0 && out.Result.Rejected > *maxRejections {
		fmt.Fprintf(os.Stderr, "btfleet: %d rejections exceed the -max-rejections gate (%d)\n",
			out.Result.Rejected, *maxRejections)
		os.Exit(1)
	}

	if srv != nil && *hold > 0 {
		fmt.Fprintf(os.Stderr, "btfleet: holding observability server for %s\n", *hold)
		time.Sleep(*hold)
	}
}

// splitList splits a comma-separated flag into trimmed non-empty parts.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
