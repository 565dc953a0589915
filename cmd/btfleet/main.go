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
	"io"
	"math"
	"os"
	"strings"
	"time"

	"bettertogether/internal/cli"
	"bettertogether/internal/fleet"
	"bettertogether/internal/obs"
	"bettertogether/internal/report"
)

func main() {
	nodes := flag.String("nodes", "pixel7a,oneplus11,jetson", "registry spec: comma-separated <device> or <device>=<count> entries, each device once")
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

	// Shared fail-fast knob validation with btrun: negative or
	// non-finite values would silently select a different policy than
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
	// fleet.GenConfig reads a zero generator knob as its own default,
	// which is not the default this command documents.
	for _, v := range []struct {
		name string
		val  float64
	}{{"-rate", *rate}, {"-burst", float64(*burst)}, {"-burst-every", *burstEvery},
		{"-mean-dwell", *meanDwell}, {"-tasks", float64(*tasks)}} {
		if !(v.val > 0) || math.IsInf(v.val, 0) {
			cli.Fatalf("btfleet", "%s must be a finite value > 0, got %v", v.name, v.val)
		}
	}
	if *pattern == "" {
		cli.Fatalf("btfleet", "-pattern must be %s or %s", fleet.PatternPoisson, fleet.PatternBursty)
	}
	if *drainNode != "" && (*drainAt < 0 || math.IsNaN(*drainAt) || math.IsInf(*drainAt, 0)) {
		cli.Fatalf("btfleet", "-drain-node requires -drain-at set to a finite time >= 0, got %v", *drainAt)
	}
	if *drainNode == "" && *drainAt >= 0 {
		cli.Fatalf("btfleet", "-drain-at %v has no effect without -drain-node", *drainAt)
	}
	// A generator flag that the replay never reads would be dropped
	// without a word: refuse it when given explicitly.
	var unread []string
	reader := "-pattern " + *pattern
	switch {
	case *tracePath != "":
		unread, reader = []string{"pattern", "arrivals", "rate", "burst", "burst-every", "apps", "mean-dwell", "tasks"}, "-trace"
	case *pattern == fleet.PatternBursty:
		unread = []string{"rate"}
	case *pattern == fleet.PatternPoisson:
		unread = []string{"burst", "burst-every"}
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range unread {
		if set[name] {
			cli.Fatalf("btfleet", "-%s has no effect with %s", name, reader)
		}
	}

	specs, err := fleet.ParseNodeSpecs(*nodes)
	cli.FatalIf("btfleet", err)
	aff, err := fleet.ParseAffinity(*affinity)
	cli.FatalIf("btfleet", err)

	cfg := fleet.Config{
		Nodes:         specs,
		Seed:          *seed,
		BWHeadroom:    *bwHeadroom,
		CoreHeadroom:  *coreHeadroom,
		ReplanDelta:   planner.ReplanDelta,
		CacheCapacity: planner.CacheCapacity,
		CacheBucket:   planner.CacheBucket,
		Affinity:      aff,
		OnlineProf:    planner.OnlineProf(),
		Trace:         tracing.Tracer(*seed),
	}
	replayOpts := fleet.ReplayOptions{SLODeadline: tracing.SLODeadline}
	if *drainNode != "" {
		replayOpts.DrainNode, replayOpts.DrainAt = *drainNode, *drainAt
	}
	// A supplied trace is decoded here; a generated one is drawn inside
	// the profiled region, as part of the replay.
	var trace fleet.Trace
	var gen *fleet.GenConfig
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		cli.FatalIf("btfleet", err)
		trace, err = fleet.DecodeTrace(f)
		cli.FatalIf("btfleet", f.Close())
		cli.FatalIf("btfleet", err)
	} else {
		gen = &fleet.GenConfig{
			Pattern:    *pattern,
			Arrivals:   *arrivals,
			RatePerSec: *rate,
			Burst:      *burst,
			BurstEvery: *burstEvery,
			Apps:       splitList(*apps),
			MeanDwell:  *meanDwell,
			Tasks:      *tasks,
			Seed:       *seed,
		}
	}

	var stream *obs.Stream
	var srv *obs.Server
	if *listen != "" {
		stream = obs.NewStream(obs.DefaultStreamCapacity)
		cfg.Events = stream
	}

	stopProf, err := prof.Start()
	cli.FatalIf("btfleet", err)
	out, err := replay(cfg, gen, trace, replayOpts)
	cli.FatalIf("btfleet", errors.Join(err, stopProf()))

	if out.onlineProfOn {
		fmt.Fprintf(os.Stderr, "btfleet: %s\n", cli.OnlineProfSummary(out.onlineProf, true))
	}
	if out.sloOn {
		fmt.Fprintf(os.Stderr, "btfleet: %s\n", cli.SLOSummary(out.slo, true))
	}

	if *listen != "" {
		// The fleet is torn down after the replay, so serve the final
		// stats snapshot: scrapers and CI probes read the completed run.
		srvCfg := obs.ServerConfig{
			Stream:  stream,
			Metrics: []func(io.Writer) error{stream.PromEvents, out.stats.PromFleet},
		}
		if out.onlineProfOn {
			srvCfg.Metrics = append(srvCfg.Metrics, out.onlineProf.PromOnlineProf)
		}
		if out.sloOn {
			srvCfg.Metrics = append(srvCfg.Metrics, out.slo.PromSLO)
		}
		if cfg.Trace != nil {
			srvCfg.Traces = cfg.Trace.Handler()
		}
		srv, err = obs.Serve(*listen, srvCfg)
		cli.FatalIf("btfleet", err)
		fmt.Fprintf(os.Stderr, "btfleet: observability server on http://%s/\n", srv.Addr())
		defer srv.Close()
	}

	if *emitTrace != "" {
		f, err := os.Create(*emitTrace)
		cli.FatalIf("btfleet", err)
		err = out.trace.Encode(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		cli.FatalIf("btfleet", err)
		fmt.Fprintf(os.Stderr, "btfleet: wrote trace to %s\n", *emitTrace)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cli.FatalIf("btfleet", enc.Encode(out.result))
	} else {
		fmt.Print(out.render())
	}

	if *maxRejections >= 0 && out.result.Rejected > *maxRejections {
		fmt.Fprintf(os.Stderr, "btfleet: %d rejections exceed the -max-rejections gate (%d)\n",
			out.result.Rejected, *maxRejections)
		os.Exit(1)
	}

	if srv != nil && *hold > 0 {
		fmt.Fprintf(os.Stderr, "btfleet: holding observability server for %s\n", *hold)
		time.Sleep(*hold)
	}
}

// outcome is what a replay leaves for the report and the observability
// server once its fleet is torn down.
type outcome struct {
	result fleet.ReplayResult
	stats  obs.FleetStats
	// trace is the trace that was replayed, generated or supplied.
	trace fleet.Trace
	// onlineProfOn is false when the replay ran without online
	// profiling; sloOn is false when no session carried a deadline.
	onlineProf   obs.OnlineProfStats
	onlineProfOn bool
	slo          obs.SLOStats
	sloOn        bool
}

// replay draws the trace from gen when one is given (else replays
// trace), builds the fleet, replays the trace on its sorted event
// timeline, and tears the fleet down. The same inputs yield a
// byte-identical outcome on every run.
func replay(cfg fleet.Config, gen *fleet.GenConfig, trace fleet.Trace, opts fleet.ReplayOptions) (outcome, error) {
	out := outcome{trace: trace}
	if gen != nil {
		tr, err := fleet.Generate(*gen)
		if err != nil {
			return out, err
		}
		out.trace = tr
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return out, err
	}
	defer f.Close()
	if out.result, err = f.ReplayWith(out.trace, opts); err != nil {
		return out, err
	}
	out.stats = f.Stats()
	out.onlineProf, out.onlineProfOn = f.OnlineProfStats()
	out.slo, out.sloOn = f.SLOStats()
	return out, nil
}

// render lays the outcome out as the report: every placement decision
// in trace order, the per-node routing split, and the fleet-wide
// summary with rejection rate and latency quantiles.
func (o outcome) render() string {
	var b strings.Builder

	placements := report.NewTable("Placement decisions", "#", "t(s)", "app", "node", "choice", "latency(s)")
	for _, r := range o.result.Records {
		node, choice, lat := r.Node, fmt.Sprintf("%d", r.Choice), report.F4(r.Elapsed)
		if r.Rejected {
			node, choice, lat = "REJECTED", "-", "-"
		}
		placements.AddRow(fmt.Sprintf("%d", r.Seq), report.F2(r.At), r.App, node, choice, lat)
	}
	b.WriteString(placements.Render())
	b.WriteString("\n")

	nodes := report.NewTable("Fleet nodes", "node", "device", "placed", "refused")
	for _, n := range o.stats.PerNode {
		nodes.AddRow(n.ID, n.Device, fmt.Sprintf("%d", n.Placed), fmt.Sprintf("%d", n.Rejected))
	}
	b.WriteString(nodes.Render())
	b.WriteString("\n")

	sum := report.NewTable("Fleet replay summary", "metric", "value")
	sum.AddRow("arrivals", fmt.Sprintf("%d", o.result.Arrivals))
	sum.AddRow("placed", fmt.Sprintf("%d", o.result.Placed))
	sum.AddRow("spillovers", fmt.Sprintf("%d", o.result.Spilled))
	sum.AddRow("rejected", fmt.Sprintf("%d", o.result.Rejected))
	sum.AddRow("rejection rate", o.result.RejectionRate())
	// Control-plane rows appear only when a drain actually ran, so the
	// default replay report stays byte-identical with or without the
	// drain machinery existing.
	for _, d := range o.result.Drains {
		sum.AddRow(fmt.Sprintf("drain %s at %s", d.Node, report.F2(d.At)),
			fmt.Sprintf("%d migrated", d.Migrated))
	}
	if o.result.Migrated > 0 {
		sum.AddRow("migrations", fmt.Sprintf("%d", o.result.Migrated))
	}
	sum.AddRow("p50 latency (s)", report.F4(o.result.P50))
	sum.AddRow("p99 latency (s)", report.F4(o.result.P99))
	if o.onlineProfOn {
		sum.AddRow("drift re-plans", fmt.Sprintf("%d", o.onlineProf.DriftReplans))
	}
	// SLO rows appear only when at least one session carried a deadline,
	// keeping deadline-free replay reports byte-identical.
	if s := o.result.SLO; s != nil {
		sum.AddRow("slo attained", fmt.Sprintf("%d/%d (%s)", s.Attained, s.Sessions, s.Fraction))
		sum.AddRow("slo missed", fmt.Sprintf("%d", s.Missed))
		sum.AddRow("slo p50 latency (s)", report.F4(s.P50))
		sum.AddRow("slo p99 latency (s)", report.F4(s.P99))
	}
	b.WriteString(sum.Render())
	return b.String()
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
