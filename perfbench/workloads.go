package main

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/internal/core"
	"bettertogether/internal/fleet"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/solver"
	"bettertogether/pkg/btapps"
)

// bench is one workload after set-up: a fixed list of inputs, each of
// which run executes once as one batch of ops.
type bench interface {
	inputs() int
	run(in int, tr *tracer) outcome
}

// outcome is what one batch produced.
type outcome struct {
	ops int
	err error
	// digest lists the batch's deterministic results, one "key=value"
	// per line; repeats of the same input must match it bit for bit.
	digest []string
	// simTaskMs and simSessionMs are modeled (virtual-time) results.
	simTaskMs, simSessionMs []float64
	// admitted of offered plans or arrivals were accepted.
	admitted, offered int
	// counts are per-layer counters, summed over batches.
	counts map[string]float64
}

// workload names a bench and says how to build it. BENCHMARK.json says
// why it exists.
type workload struct {
	name string
	// setupReps is how many set-up samples setup_s is the median of.
	setupReps int
	setup     func(seed int64) (bench, error)
}

var workloads = []workload{
	{name: "paper-plan", setupReps: 7, setup: setupPaperPlan},
	{name: "fleet-sparse", setupReps: 15, setup: setupFleetSparse},
	{name: "fleet-saturated", setupReps: 15, setup: setupFleetSaturated},
	{name: "real-pipeline", setupReps: 15, setup: setupRealPipeline},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// deriveSeed mixes the benchmark seed with a purpose index (splitmix64),
// so each input gets an independent, reproducible stream.
func deriveSeed(seed int64, purpose int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(purpose+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & math.MaxInt64)
}

func bits(x float64) string { return fmt.Sprintf("%x", math.Float64bits(x)) }

// ---- paper-plan --------------------------------------------------------

// Paper configuration (Sec. 4): 30 profiling repetitions, 30 measured
// tasks after 5 warmup tasks per autotuning and final run.
const (
	paperReps   = profiler.DefaultReps
	paperTasks  = 30
	paperWarmup = 5
)

var paperApps = []string{"alexnet-dense", "alexnet-sparse", "octree"}

type paperPlan struct {
	seed int64
	apps []*core.Application
	devs []*soc.Device
}

func setupPaperPlan(seed int64) (bench, error) {
	b := &paperPlan{seed: seed, devs: soc.Catalog()}
	for _, name := range paperApps {
		app, err := btapps.ByName(name)
		if err != nil {
			return nil, err
		}
		b.apps = append(b.apps, app)
	}
	return b, nil
}

func (b *paperPlan) inputs() int { return 1 }

// run is one grid pass: every (app, device) cell is profiled, solved,
// autotuned, compiled and simulated. The pass is one op.
func (b *paperPlan) run(_ int, tr *tracer) outcome {
	out := outcome{ops: 1, counts: map[string]float64{}}
	root := tr.begin("plan.grid_pass", 0)
	defer tr.end(root)
	cell := 0
	for _, app := range b.apps {
		for _, dev := range b.devs {
			seed := deriveSeed(b.seed, cell)
			cell++
			out.offered++
			cs := tr.begin("plan.cell", root)
			r, line, err := b.cell(app, dev, seed, cs, tr, out.counts)
			tr.end(cs)
			if err != nil {
				out.err = fmt.Errorf("%s on %s: %w", app.Name, dev.Name, err)
				return out
			}
			out.admitted++
			out.digest = append(out.digest, line)
			out.simTaskMs = append(out.simTaskMs, r.PerTask*1e3)
			out.simSessionMs = append(out.simSessionMs, r.Elapsed*1e3)
		}
	}
	return out
}

func (b *paperPlan) cell(app *core.Application, dev *soc.Device, seed int64, parent int, tr *tracer, counts map[string]float64) (pipeline.Result, string, error) {
	s := tr.begin("profiler.ProfileBoth", parent)
	tables := profiler.ProfileBoth(app, dev, profiler.Config{Reps: paperReps, Seed: seed})
	tr.end(s)

	opt := sched.New(app, dev, tables)
	var search solver.SearchStats
	opt.Search = &search
	s = tr.begin("sched.Candidates", parent)
	cands := opt.Candidates(sched.BetterTogether)
	tr.end(s)
	if len(cands) == 0 {
		return pipeline.Result{}, "", fmt.Errorf("no feasible schedule")
	}
	opts := pipeline.Options{Tasks: paperTasks, Warmup: paperWarmup, Seed: seed}
	s = tr.begin("sched.Autotune", parent)
	tune, err := opt.Autotune(cands, opts)
	tr.end(s)
	if err != nil {
		return pipeline.Result{}, "", err
	}
	best := cands[tune.BestIndex].Schedule
	s = tr.begin("pipeline.NewPlan", parent)
	plan, err := pipeline.NewPlan(app, dev, best)
	tr.end(s)
	if err != nil {
		return pipeline.Result{}, "", err
	}
	s = tr.begin("pipeline.SimEngine.Run", parent)
	r := pipeline.SimEngine{}.Run(context.Background(), plan, opts)
	tr.end(s)
	if r.Err != nil {
		return r, "", r.Err
	}
	if !(r.PerTask > 0) || len(r.Completions) != paperTasks {
		return r, "", fmt.Errorf("simulated run of %s gave per-task %v over %d tasks", best, r.PerTask, len(r.Completions))
	}
	counts["plans"]++
	counts["solver.visited"] += float64(search.Visited)
	counts["solver.pruned"] += float64(search.Pruned)
	counts["sched.candidates"] += float64(len(cands))
	counts["sim.tasks"] += paperTasks + paperWarmup
	line := fmt.Sprintf("%s@%s schedule=%s per_task=%s elapsed=%s cands=%d visited=%d pruned=%d",
		app.Name, dev.Name, best, bits(r.PerTask), bits(r.Elapsed), len(cands), search.Visited, search.Pruned)
	return r, line, nil
}

// ---- fleet workloads -----------------------------------------------------

// fleetBench replays seeded arrival traces on a fresh fleet per batch, so
// every repeat of an input starts from the same state (empty nodes, empty
// schedule cache).
type fleetBench struct {
	cfg    fleet.Config
	traces []fleet.Trace
	tasks  int
	// buildMs is each app's btapps.ByName cost, measured once per traced
	// phase (the replay calls ByName internally, out of the sink's view).
	buildMs map[string]float64
}

type fleetShape struct {
	nodes               string
	apps                []string
	arrivals, inputs    int
	rate, dwell         float64
	tasks, cacheEntries int
}

var (
	// The ledger scenario: two app builds that differ by five orders of
	// magnitude, on a fleet large enough that nothing is refused.
	sparseShape = fleetShape{nodes: "pixel7a=20,jetson=20", apps: []string{"octree", "alexnet-sparse"},
		arrivals: 4, inputs: 6, rate: 1, dwell: 30, tasks: 30, cacheEntries: 256}
	// Eighty arrivals in ten virtual seconds against sessions that dwell
	// for thirty: the fleet fills early and refuses most of the rest.
	saturatedShape = fleetShape{nodes: "pixel7a=4,oneplus11=4,jetson=4", apps: []string{"octree", "vision"},
		arrivals: 80, inputs: 8, rate: 8, dwell: 30, tasks: 30, cacheEntries: 256}
)

func setupFleetSparse(seed int64) (bench, error)    { return setupFleet(seed, sparseShape) }
func setupFleetSaturated(seed int64) (bench, error) { return setupFleet(seed, saturatedShape) }

func setupFleet(seed int64, sh fleetShape) (bench, error) {
	specs, err := fleet.ParseNodeSpecs(sh.nodes)
	if err != nil {
		return nil, err
	}
	b := &fleetBench{
		cfg:   fleet.Config{Nodes: specs, Seed: deriveSeed(seed, 1000), CacheCapacity: sh.cacheEntries},
		tasks: sh.tasks,
	}
	for i := 0; i < sh.inputs; i++ {
		t, err := fleet.Generate(fleet.GenConfig{
			Pattern: fleet.PatternPoisson, Arrivals: sh.arrivals, RatePerSec: sh.rate,
			Apps: sh.apps, MeanDwell: sh.dwell, Tasks: sh.tasks, Seed: deriveSeed(seed, i),
		})
		if err != nil {
			return nil, err
		}
		b.traces = append(b.traces, t)
	}
	// Build the fleet once so a bad configuration fails in set-up.
	f, err := fleet.New(b.cfg)
	if err != nil {
		return nil, err
	}
	f.Close()
	return b, nil
}

func (b *fleetBench) inputs() int { return len(b.traces) }

// prepareTrace measures each app's build cost for apps.build_ms_per_op.
func (b *fleetBench) prepareTrace() error {
	b.buildMs = map[string]float64{}
	for _, t := range b.traces {
		for _, a := range t.Arrivals {
			if _, ok := b.buildMs[a.App]; ok {
				continue
			}
			var ms []float64
			for i := 0; i < 3; i++ {
				start := time.Now()
				if _, err := btapps.ByName(a.App); err != nil {
					return err
				}
				ms = append(ms, float64(time.Since(start))/1e6)
			}
			b.buildMs[a.App] = median(ms)
		}
	}
	return nil
}

// run replays trace in on a fresh fleet; each arrival is one op.
func (b *fleetBench) run(in int, tr *tracer) outcome {
	t := b.traces[in]
	out := outcome{ops: len(t.Arrivals), counts: map[string]float64{}}
	cfg := b.cfg
	var sink *eventSink
	if tr != nil {
		sink = &eventSink{tr: tr}
		cfg.Events = sink
	}
	root := tr.begin("fleet.op", 0)
	defer tr.end(root)

	s := tr.begin("fleet.New", root)
	f, err := fleet.New(cfg)
	tr.end(s)
	if err != nil {
		out.err = err
		return out
	}
	defer f.Close()

	s = tr.begin("fleet.ReplayWith", root)
	if sink != nil {
		sink.open(s)
	}
	res, err := f.ReplayWith(t, fleet.ReplayOptions{})
	tr.end(s)
	if err != nil {
		out.err = err
		return out
	}
	if err := checkReplay(t, res); err != nil {
		out.err = err
		return out
	}

	out.admitted, out.offered = res.Placed, res.Arrivals
	for _, rec := range res.Records {
		out.digest = append(out.digest, fmt.Sprintf("%d %s node=%s choice=%d rejected=%t elapsed=%s",
			rec.Seq, rec.Session, rec.Node, rec.Choice, rec.Rejected, bits(rec.Elapsed)))
		if !rec.Rejected {
			out.simTaskMs = append(out.simTaskMs, rec.Elapsed*1e3/float64(b.tasks))
			out.simSessionMs = append(out.simSessionMs, rec.Elapsed*1e3)
		}
		if b.buildMs != nil {
			out.counts["apps.build_ms"] += b.buildMs[rec.App]
		}
	}

	c := out.counts
	st := f.Stats()
	attempts := 0
	for _, n := range st.PerNode {
		attempts += n.Placed + n.Rejected
	}
	cs := f.Cache().Stats()
	replans, skipped := 0, 0
	for _, n := range f.Nodes() {
		skipped += n.RT.ReplansSkipped()
		for _, sess := range n.RT.Sessions() {
			replans += sess.Replans()
		}
	}
	c["arrivals"] += float64(res.Arrivals)
	c["placed"] += float64(res.Placed)
	c["spilled"] += float64(res.Spilled)
	c["attempts"] += float64(attempts)
	c["cache.hits"] += float64(cs.Hits)
	c["cache.misses"] += float64(cs.Misses)
	c["replans"] += float64(replans)
	if sink != nil {
		c["events"] += float64(sink.events)
		c["sink.attempts"] += float64(sink.attempts)
		c["wave.tasks"] += float64(sink.waveTasks)
	}
	out.digest = append(out.digest, fmt.Sprintf("attempts=%d cache=%d/%d replans=%d skipped=%d spilled=%d",
		attempts, cs.Hits, cs.Misses, replans, skipped, res.Spilled))
	return out
}

// checkReplay is the fleet output check: every arrival is either placed
// or rejected, and every placed session ran for positive modeled time.
func checkReplay(t fleet.Trace, res fleet.ReplayResult) error {
	if res.Arrivals != len(t.Arrivals) || len(res.Records) != len(t.Arrivals) {
		return fmt.Errorf("replay reports %d arrivals and %d records for a %d-arrival trace", res.Arrivals, len(res.Records), len(t.Arrivals))
	}
	if res.Placed+res.Rejected != res.Arrivals {
		return fmt.Errorf("placed %d + rejected %d != arrivals %d", res.Placed, res.Rejected, res.Arrivals)
	}
	placed := 0
	for _, rec := range res.Records {
		if rec.Rejected {
			continue
		}
		placed++
		if !(rec.Elapsed > 0) {
			return fmt.Errorf("placed session %s has elapsed %v", rec.Session, rec.Elapsed)
		}
	}
	if placed != res.Placed {
		return fmt.Errorf("%d placed records, result says %d", placed, res.Placed)
	}
	return nil
}

// ---- real-pipeline -------------------------------------------------------

// realTasks is each app's task count per Run; a batch runs both apps, so
// its per-task time mixes them in fixed proportion.
const realTasks = 8

// realBench runs a fixed two-chunk schedule per app on the Real engine:
// the first half of the stages on OnePlus 11's one-core big cluster, the
// rest on the GPU executor at width 1 — two workers, one per host core.
type realBench struct {
	plans []*pipeline.Plan
	opts  pipeline.Options
	// checks counts validated tasks and the first invalid output, fed by
	// a hook on each app's last stage.
	checks *outputCheck
	// simTaskMs and simSessionMs are the simulator's figures for the same
	// plans, the modeled outcome this workload reports.
	simTaskMs, simSessionMs []float64
}

type outputCheck struct {
	mu        sync.Mutex
	validated int
	err       error
}

func (c *outputCheck) record(err error) {
	c.mu.Lock()
	c.validated++
	if err != nil && c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *outputCheck) take() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.validated, c.err
	c.validated, c.err = 0, nil
	return n, err
}

// validateTask checks one finished task's output the way the btapps
// tests do: a non-empty octree with its root in range, or a downscaled
// frame of the right size that is not all zero.
func validateTask(task *core.TaskObject) error {
	if p, ok := task.Payload.(*octree.Task); ok {
		if p.TotalNodes <= 0 || len(p.Result.Nodes) == 0 {
			return fmt.Errorf("octree task %d: empty octree", task.Seq)
		}
		if p.Result.Root < 0 || int(p.Result.Root) >= len(p.Result.Nodes) {
			return fmt.Errorf("octree task %d: root %d out of range", task.Seq, p.Result.Root)
		}
		return nil
	}
	vt := vision.Unwrap(task.Payload)
	if len(vt.Out.Data) != (vt.W/2)*(vt.H/2) {
		return fmt.Errorf("vision task %d: output size %d", task.Seq, len(vt.Out.Data))
	}
	for _, v := range vt.Out.Data {
		if v != 0 {
			return nil
		}
	}
	return fmt.Errorf("vision task %d: all-zero output frame", task.Seq)
}

func setupRealPipeline(seed int64) (bench, error) {
	dev, err := soc.DeviceByName(soc.OnePlus11)
	if err != nil {
		return nil, err
	}
	b := &realBench{
		checks: &outputCheck{},
		opts:   pipeline.Options{Tasks: realTasks, GPUPoolWidth: 1, Seed: seed},
	}
	for _, name := range []string{"octree", "vision"} {
		app, err := btapps.ByName(name)
		if err != nil {
			return nil, err
		}
		last := len(app.Stages) - 1
		for _, k := range []*core.KernelFunc{&app.Stages[last].CPU, &app.Stages[last].GPU} {
			orig := *k
			*k = func(task *core.TaskObject, par core.ParallelFor) {
				orig(task, par)
				b.checks.record(validateTask(task))
			}
		}
		assign := make([]core.PUClass, len(app.Stages))
		for i := range assign {
			assign[i] = core.ClassGPU
			if i < len(assign)/2 {
				assign[i] = core.ClassBig
			}
		}
		plan, err := pipeline.NewPlan(app, dev, core.Schedule{Assign: assign})
		if err != nil {
			return nil, err
		}
		sim := pipeline.SimEngine{}.Run(context.Background(), plan, b.opts)
		if sim.Err != nil {
			return nil, sim.Err
		}
		b.plans = append(b.plans, plan)
		b.simTaskMs = append(b.simTaskMs, sim.PerTask*1e3)
		b.simSessionMs = append(b.simSessionMs, sim.Elapsed*1e3)
	}
	return b, nil
}

func (b *realBench) inputs() int { return 1 }

// run executes every plan once on the Real engine; each task is one op.
func (b *realBench) run(_ int, tr *tracer) outcome {
	out := outcome{ops: len(b.plans) * realTasks, counts: map[string]float64{}}
	out.simTaskMs, out.simSessionMs = b.simTaskMs, b.simSessionMs
	root := tr.begin("real.op", 0)
	defer tr.end(root)
	c := out.counts
	for _, plan := range b.plans {
		opts := b.opts
		m := pipeline.NewMetricsFor(plan, opts)
		opts.Metrics = m
		var before, after goruntime.MemStats
		if tr != nil {
			goruntime.ReadMemStats(&before)
		}
		s := tr.begin("pipeline.RealEngine.Run", root)
		start := time.Now()
		r := pipeline.RealEngine{}.Run(context.Background(), plan, opts)
		wall := time.Since(start)
		tr.end(s)
		if tr != nil {
			goruntime.ReadMemStats(&after)
			c["real.mallocs"] += float64(after.Mallocs - before.Mallocs)
		}
		validated, bad := b.checks.take()
		switch {
		case r.Err != nil:
			out.err = fmt.Errorf("%s: %w", plan.App.Name, r.Err)
		case len(r.Completions) != realTasks:
			out.err = fmt.Errorf("%s: %d completions, want %d", plan.App.Name, len(r.Completions), realTasks)
		case bad != nil:
			out.err = bad
		case validated != realTasks:
			out.err = fmt.Errorf("%s: validated %d tasks, want %d", plan.App.Name, validated, realTasks)
		}
		if out.err != nil {
			return out
		}
		out.offered++
		out.admitted++
		out.digest = append(out.digest, fmt.Sprintf("%s completions=%d validated=%d", plan.App.Name, len(r.Completions), validated))
		c["real.tasks"] += realTasks
		for e := 0; e < m.NumQueues(); e++ {
			c["queue.wait_ns"] += float64(m.Queue(e).Wait().Sum())
			c["queue.stall_ns"] += float64(m.Queue(e).Stall().Sum())
		}
		for i := 0; i < m.NumPools(); i++ {
			c["pool.busy_ns"] += float64(m.Pool(i).BusyTime())
			c["pool.cap_ns"] += float64(m.Pool(i).Width) * float64(wall)
		}
	}
	return out
}
