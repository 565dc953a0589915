// Command btrun executes pipeline schedules on a device, either on the
// discrete-event simulator (virtual device time, the measurement path of
// the evaluation) or with the real concurrent engine (actual Go kernels
// on worker pools, wall-clock time).
//
// Usage:
//
//	btrun -app octree -device pixel7a -schedule auto
//	btrun -app octree -device pixel7a -schedule big,big,gpu,gpu,gpu,big,big
//	btrun -app alexnet-dense -device jetson -schedule gpu -engine real
//	btrun -app octree -app alexnet-sparse -device oneplus11 -gantt
//
// A single class name replicates across all stages (homogeneous
// baseline); "auto" runs the full BetterTogether optimization first.
//
// Repeating -app enters multi-app mode: a long-lived runtime admits each
// application as a concurrent session (optionally staggered with
// -admit-after), plans each one against the interference the others
// create, re-plans residents on every admission and departure, and
// prints a per-session summary with a merged session-qualified Gantt.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"bettertogether/internal/cli"
	"bettertogether/internal/obs"
	"bettertogether/internal/report"
	btruntime "bettertogether/internal/runtime"
	"bettertogether/internal/trace"
	"bettertogether/pkg/bt"
	"bettertogether/pkg/btapps"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// delayFlag collects a repeatable duration flag.
type delayFlag []time.Duration

func (d *delayFlag) String() string {
	parts := make([]string, len(*d))
	for i, v := range *d {
		parts[i] = v.String()
	}
	return strings.Join(parts, ",")
}

func (d *delayFlag) Set(v string) error {
	dur, err := time.ParseDuration(v)
	if err != nil {
		return err
	}
	if dur < 0 {
		return fmt.Errorf("negative delay %s", dur)
	}
	*d = append(*d, dur)
	return nil
}

func main() {
	var apps multiFlag
	var delays delayFlag
	flag.Var(&apps, "app", "application: alexnet-dense, alexnet-sparse, octree, vision (repeat for multi-app mode)")
	flag.Var(&delays, "admit-after", "multi-app: delay before admitting the matching -app (repeatable, in order; missing entries mean no delay)")
	devName := flag.String("device", "pixel7a", "device: pixel7a, oneplus11, jetson, jetson-lp")
	schedule := flag.String("schedule", "auto", `comma-separated PU classes per stage, one class for all, or "auto"`)
	engine := flag.String("engine", "sim", "execution engine: sim (virtual device time) or real (actual kernels)")
	tasks := flag.Int("tasks", 30, "measured tasks (per session in multi-app mode)")
	warmup := flag.Int("warmup", 5, "warmup tasks excluded from metrics")
	seed := flag.Int64("seed", 1, "simulation noise seed")
	gantt := flag.Bool("gantt", false, "render an ASCII Gantt chart of the run (either engine)")
	traceFlag := flag.Bool("trace", false, "alias for -gantt: trace stage spans and render the Gantt")
	metricsFlag := flag.Bool("metrics", false, "print the per-stage/queue/pool runtime metrics tables")
	timeout := flag.Duration("timeout", 0, "cancel a real-engine run after this duration (0 = no limit)")
	listen := flag.String("listen", "", "serve observability HTTP on this address (/metrics, /sessions, /trace, /events, /healthz, /debug/pprof)")
	hold := flag.Duration("hold", 0, "with -listen: keep the server up this long after the run finishes (for scrapers and CI probes)")
	chromeTrace := flag.String("chrome-trace", "", "write the run's timeline as Chrome trace_event JSON to this file (implies tracing; open in Perfetto)")
	planner := cli.AddPlannerFlags(flag.CommandLine)
	tracing := cli.AddTraceFlags(flag.CommandLine)
	flag.Parse()

	// The planner knobs (cache, re-plan delta, online profiling) share
	// one validation path with btfleet.
	cli.FatalIf("btrun", planner.Validate())
	cli.FatalIf("btrun", tracing.Validate())
	// The engines and the runtime read a task count <= 0 as their own
	// default of 30, which the report would then misstate.
	if *tasks <= 0 {
		cli.Fatalf("btrun", "-tasks must be > 0, got %d", *tasks)
	}
	if *warmup < 0 {
		cli.Fatalf("btrun", "-warmup must be >= 0, got %d", *warmup)
	}

	if len(apps) == 0 {
		apps = multiFlag{"octree"}
	}
	dev, err := bt.DeviceByName(*devName)
	cli.FatalIf("btrun", err)
	eng, err := bt.EngineByName(*engine)
	cli.FatalIf("btrun", err)

	if len(apps) > 1 {
		runMulti(apps, delays, dev, eng, *schedule, *tasks, *warmup, *seed,
			*gantt || *traceFlag, *metricsFlag, *listen, *hold, *chromeTrace,
			planner, tracing)
		return
	}
	// The planner knobs, the lifecycle tracer and SLO accounting live in
	// the session runtime, which only multi-app mode drives; failing fast
	// beats silently ignoring the flags.
	if tracing.SLODeadline > 0 || tracing.TraceSample > 0 {
		cli.Fatalf("btrun", "-slo-deadline and -trace-sample require multi-app mode (repeat -app)")
	}
	if *planner != (cli.PlannerFlags{}) {
		cli.Fatalf("btrun", "-sched-cache, -cache-bucket, -replan-delta, -online-profile and -drift-threshold require multi-app mode (repeat -app)")
	}
	runSingle(apps[0], dev, eng, *schedule, *engine, *tasks, *warmup, *seed,
		*gantt || *traceFlag, *metricsFlag, *timeout, *listen, *hold, *chromeTrace)
}

// serveObs mounts the introspection server, fatal on a bad address.
func serveObs(addr string, cfg obs.ServerConfig) *obs.Server {
	srv, err := obs.Serve(addr, cfg)
	cli.FatalIf("btrun", err)
	fmt.Fprintf(os.Stderr, "btrun: observability server on http://%s/\n", srv.Addr())
	return srv
}

// holdAndClose keeps a mounted server alive for the -hold window, then
// shuts it down.
func holdAndClose(srv *obs.Server, hold time.Duration) {
	if srv == nil {
		return
	}
	if hold > 0 {
		fmt.Fprintf(os.Stderr, "btrun: holding observability server for %s\n", hold)
		time.Sleep(hold)
	}
	srv.Close()
}

// writeChromeTrace exports a timeline as trace_event JSON.
func writeChromeTrace(path string, tl *trace.Timeline) {
	f, err := os.Create(path)
	cli.FatalIf("btrun", err)
	err = obs.ChromeTrace(f, tl)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	cli.FatalIf("btrun", err)
	fmt.Fprintf(os.Stderr, "btrun: wrote Chrome trace to %s (load in Perfetto / chrome://tracing)\n", path)
}

// runSingle is the classic one-application path: compile one plan and
// drive it through the selected engine once.
func runSingle(appName string, dev *bt.Device, eng bt.Engine, schedule, engineName string,
	tasks, warmup int, seed int64, wantTrace, wantMetrics bool, timeout time.Duration,
	listen string, hold time.Duration, chromeTrace string) {
	app, err := btapps.ByName(appName)
	cli.FatalIf("btrun", err)

	sch, err := parseSchedule(schedule, app, dev)
	cli.FatalIf("btrun", err)

	plan, err := bt.NewPlan(app, dev, sch)
	cli.FatalIf("btrun", err)
	opts := bt.RunOptions{Tasks: tasks, Warmup: warmup, Seed: seed}
	// The exporters need their collectors even when the tables and Gantt
	// are not printed: -listen serves the live collector and timeline,
	// -chrome-trace needs the spans.
	var tl *bt.Timeline
	if wantTrace || listen != "" || chromeTrace != "" {
		tl = &bt.Timeline{}
		opts.Trace = tl
	}
	var m *bt.Metrics
	if wantMetrics || listen != "" {
		m = bt.NewMetrics(plan)
		opts.Metrics = m
	}
	// The timeline fills at run finalize, so publish it to the server only
	// once the run is done; until then /trace serves an empty document.
	var (
		tlMu   sync.Mutex
		tlDone *trace.Timeline
	)
	var srv *obs.Server
	if listen != "" {
		stream := obs.NewStream(obs.DefaultStreamCapacity)
		opts.Events = stream
		srv = serveObs(listen, obs.ServerConfig{
			Stream: stream,
			Metrics: []func(io.Writer) error{
				func(w io.Writer) error { return obs.PromText(w, obs.PromSource{Metrics: m}) },
				stream.PromEvents,
			},
			Timeline: func() *trace.Timeline {
				tlMu.Lock()
				defer tlMu.Unlock()
				return tlDone
			},
		})
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	r := eng.Run(ctx, plan, opts)
	tlMu.Lock()
	tlDone = tl
	tlMu.Unlock()
	if r.Err != nil {
		fmt.Fprintln(os.Stderr, "btrun: run ended with error:", r.Err)
	}

	fmt.Printf("app       %s\ndevice    %s\nschedule  %s\nengine    %s\n",
		app.Name, dev.Label, sch, engineName)
	fmt.Printf("tasks     %d (+%d warmup)\n", tasks, warmup)
	fmt.Printf("per-task  %.3f ms\nelapsed   %.3f ms\n", r.PerTask*1e3, r.Elapsed*1e3)
	if len(r.ChunkBusy) > 0 {
		fmt.Printf("chunk busy fractions: ")
		for i, b := range r.ChunkBusy {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%.2f", b)
		}
		fmt.Println()
	}
	if m != nil && wantMetrics {
		fmt.Println()
		fmt.Print(m.Table())
	}
	if tl != nil && wantTrace {
		fmt.Println()
		fmt.Print(tl.Gantt(100))
	}
	if chromeTrace != "" {
		writeChromeTrace(chromeTrace, tl)
	}
	holdAndClose(srv, hold)
	// Partial stats above are still useful diagnostics, but an errored
	// run must not exit 0.
	if r.Err != nil {
		os.Exit(1)
	}
}

// runMulti admits every application into one runtime, staggered by the
// -admit-after delays, and reports per-session results plus the merged
// Gantt. The runtime plans each session itself, so an explicit -schedule
// is rejected.
func runMulti(apps []string, delays []time.Duration, dev *bt.Device, eng bt.Engine,
	schedule string, tasks, warmup int, seed int64, wantTrace, wantMetrics bool,
	listen string, hold time.Duration, chromeTrace string,
	planner *cli.PlannerFlags, tracing *cli.TraceFlags) {
	if schedule != "auto" {
		cli.Fatalf("btrun", "multi-app mode plans each session itself; drop -schedule (got %q)", schedule)
	}
	tracer := tracing.Tracer(seed)
	cfg := btruntime.Config{
		Device:      dev,
		Engine:      eng,
		Seed:        seed,
		Cache:       planner.Cache(),
		ReplanDelta: planner.ReplanDelta,
		OnlineProf:  planner.OnlineProf(),
		Trace:       tracer,
	}
	var stream *obs.Stream
	if listen != "" {
		stream = obs.NewStream(obs.DefaultStreamCapacity)
		cfg.Events = stream
	}
	rt, err := btruntime.New(cfg)
	cli.FatalIf("btrun", err)
	defer rt.Close()

	// The server reads per-session metrics and traces, so -listen and
	// -chrome-trace force collection even when the tables stay unprinted.
	collectMetrics := wantMetrics || listen != ""
	collectTrace := wantTrace || listen != "" || chromeTrace != ""
	var srv *obs.Server
	if listen != "" {
		srvCfg := obs.ServerConfig{
			Inspector: rt,
			Stream:    stream,
			Metrics:   []func(io.Writer) error{stream.PromEvents},
			Timeline:  rt.Timeline,
		}
		if c := rt.Cache(); c != nil {
			srvCfg.Metrics = append(srvCfg.Metrics, func(w io.Writer) error { return obs.PromCache(w, c.Stats()) })
		}
		if _, ok := rt.OnlineProfStats(); ok {
			srvCfg.Metrics = append(srvCfg.Metrics, func(w io.Writer) error {
				s, _ := rt.OnlineProfStats()
				return s.PromOnlineProf(w)
			})
		}
		if tracing.SLODeadline > 0 {
			srvCfg.Metrics = append(srvCfg.Metrics, func(w io.Writer) error {
				s, _ := rt.SLOStats()
				return s.PromSLO(w)
			})
		}
		if tracer != nil {
			srvCfg.Traces = tracer.Handler()
		}
		srv = serveObs(listen, srvCfg)
	}

	failed := false
	for i, name := range apps {
		app, err := btapps.ByName(name)
		cli.FatalIf("btrun", err)
		if i < len(delays) && delays[i] > 0 {
			time.Sleep(delays[i])
		}
		fmt.Fprintf(os.Stderr, "btrun: admitting %s...\n", app.Name)
		s, err := rt.Admit(app, btruntime.AdmitOptions{
			Tasks:          tasks,
			Warmup:         warmup,
			Seed:           seed + int64(i)*7919,
			CollectMetrics: collectMetrics,
			CollectTrace:   collectTrace,
			Deadline:       tracing.SLODeadline,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "btrun:", err)
			failed = true
			continue
		}
		fmt.Fprintf(os.Stderr, "btrun: admitted %s with schedule %s\n", s.Name(), s.Schedule())
	}
	rt.Wait()

	if c := rt.Cache(); c != nil {
		st := c.Stats()
		fmt.Fprintf(os.Stderr, "btrun: schedule cache: %d hits, %d misses, %d stores, %d evictions (%d/%d entries); %d re-plans delta-skipped\n",
			st.Hits, st.Misses, st.Stores, st.Evictions, st.Size, st.Capacity, rt.ReplansSkipped())
	}
	if s, ok := rt.OnlineProfStats(); ok {
		fmt.Fprintf(os.Stderr, "btrun: %s\n", cli.OnlineProfSummary(s, ok))
	}
	if s, ok := rt.SLOStats(); ok {
		fmt.Fprintf(os.Stderr, "btrun: %s\n", cli.SLOSummary(s, ok))
	}
	fmt.Print(rt.Report(100))
	for _, s := range rt.Sessions() {
		if res := s.Wait(); res.Err != nil {
			failed = true
		}
		if m := s.Metrics(); m != nil && wantMetrics {
			fmt.Println()
			fmt.Print(report.Section(fmt.Sprintf("metrics — %s", s.Name()), m.Table()))
		}
	}
	if chromeTrace != "" {
		writeChromeTrace(chromeTrace, rt.Timeline())
	}
	holdAndClose(srv, hold)
	if failed {
		os.Exit(1)
	}
}

// parseSchedule resolves the -schedule flag against an application:
// "auto" optimizes, a bare class replicates, and a comma list maps
// per stage.
func parseSchedule(schedule string, app *bt.Application, dev *bt.Device) (bt.Schedule, error) {
	var sch bt.Schedule
	switch {
	case schedule == "auto":
		fmt.Fprintln(os.Stderr, "btrun: profiling and optimizing...")
		return bt.AutoSchedule(app, dev)
	case !strings.Contains(schedule, ","):
		return bt.NewUniformSchedule(len(app.Stages), bt.PUClass(schedule)), nil
	default:
		for _, c := range strings.Split(schedule, ",") {
			sch.Assign = append(sch.Assign, bt.PUClass(strings.TrimSpace(c)))
		}
		return sch, nil
	}
}
