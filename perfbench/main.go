// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time in one process, checks the outputs, and prints every
// metric of BENCHMARK.json by name with its unit as a JSON object on the
// last line of standard output. Run it from the repository root:
//
//	python3 perfbench/run.py --workload paper-plan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs half the time untraced and half traced, reports
// the per-layer metrics of the traced half, and writes the traced half's
// spans to --spans. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// warmUp is how long untimed batches run before the first timed one.
const warmUp = 2 * time.Second

// setupBlock is the shortest block of set-ups timed as one sample. Steal
// is counted in 10 ms ticks and one clock reading jitters by microseconds,
// so a sub-millisecond set-up is repeated until a block spans many ticks.
const setupBlock = 100 * time.Millisecond

// spec is the part of BENCHMARK.json that names the metrics.
type spec struct {
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// metric is one reported figure.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	spansPath := flag.String("spans", "", "with --trace 1, write the traced spans here as JSON")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *spansPath); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced int, spansPath string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds <= 0 || traced < 0 || traced > 1 {
		return fmt.Errorf("want --seconds > 0 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n", w.name, seed, seconds, traced, runtime.GOMAXPROCS(0))

	// Each set-up sample is a block of fresh set-ups lasting at least
	// setupBlock, timed like the batches (unstolen), divided by the number
	// of set-ups in it. The collector is paused during the blocks: whether
	// and how often a block crosses the heap target depends on where the
	// previous one left the heap, which moved set-up time between runs.
	var b bench
	var setups []float64
	gcPercent := debug.SetGCPercent(-1)
	for i := 0; i < w.setupReps; i++ {
		runtime.GC()
		n := 0
		start, cpu, st := time.Now(), cpuTime(), stealTime()
		for n == 0 || time.Since(start) < setupBlock {
			if b, err = w.setup(seed); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			n++
		}
		d := unstolen(time.Since(start), cpuTime()-cpu, stealTime()-st)
		setups = append(setups, d.Seconds()/float64(n))
	}
	debug.SetGCPercent(gcPercent)

	// Untimed batches let caches fill, lazy set-up finish and the heap
	// grow to its working size (the first second of batches runs up to
	// twice as slow); they also set the exact-repeat guard's references.
	g := newGuard(b.inputs())
	warmOK := true
	for i, start := 0, time.Now(); i == 0 || time.Since(start) < warmUp; i++ {
		in := i % b.inputs()
		out := b.run(in, nil)
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up input %d failed: %v\n", in, out.err)
			warmOK = false
			continue
		}
		g.check(in, out)
	}

	dur := time.Duration(seconds * float64(time.Second))
	var res result
	var values map[string]float64
	if traced == 0 {
		ph := measure(b, dur, nil, g)
		res = ph.result
		values = ph.endToEnd(median(setups))
		ph.report(os.Stderr)
	} else {
		plain := measure(b, dur/2, nil, g)
		if fb, ok := b.(*fleetBench); ok {
			if err := fb.prepareTrace(); err != nil {
				return err
			}
		}
		tr := newTracer()
		tp := measure(b, dur/2, tr, g)
		res = plain.result.add(tp.result)
		lt := layerTimes(tr.spans)
		values = tp.perLayer(lt, plain.opsPerS())
		if err := tr.write(spansPath, lt); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		tp.report(os.Stderr)
		reportLayers(os.Stderr, lt)
	}
	res.correct = res.correct && warmOK
	for _, msg := range g.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: repeat guard:", msg)
		res.correct = false
	}
	list := sp.EndToEnd
	if traced == 1 {
		list = sp.PerLayer
	}
	return printResult(res, values, list)
}

// result is the pass/fail tally of a run.
type result struct {
	correct           bool
	attempted, failed int
}

func (r result) add(o result) result {
	return result{correct: r.correct && o.correct, attempted: r.attempted + o.attempted, failed: r.failed + o.failed}
}

// guard is the exact-repeat check: every batch of an input must produce
// the digest the first batch of that input produced.
type guard struct {
	ref        [][]string
	seen       []bool
	mismatches []string
}

func newGuard(inputs int) *guard {
	return &guard{ref: make([][]string, inputs), seen: make([]bool, inputs)}
}

// check compares out against input in's reference, recording the first
// differing line; it reports whether the batch repeated exactly.
func (g *guard) check(in int, out outcome) bool {
	if !g.seen[in] {
		g.ref[in], g.seen[in] = out.digest, true
		return true
	}
	ref := g.ref[in]
	for i := 0; i < max(len(ref), len(out.digest)); i++ {
		var a, b string
		if i < len(ref) {
			a = ref[i]
		}
		if i < len(out.digest) {
			b = out.digest[i]
		}
		if a != b {
			g.mismatches = append(g.mismatches, fmt.Sprintf("input %d line %d: first %q, now %q", in, i, a, b))
			return false
		}
	}
	return true
}

// phase is one timed loop over the inputs.
type phase struct {
	result
	// elapsed is wall time less the delay steal caused; see unstolen.
	elapsed time.Duration
	wall    time.Duration
	ops     int
	opMs    []float64 // per batch: unstolen ms per op
	first   []outcome // the first full cycle over the inputs
	counts  map[string]float64
	cpu     time.Duration
	steal   time.Duration
	allocB  float64 // bytes allocated in the phase
	liveB   float64 // heap in use after a forced GC at the end
}

// measure runs batches, cycling over the inputs, until dur has passed and
// at least one full cycle is done.
func measure(b bench, dur time.Duration, tr *tracer, g *guard) *phase {
	ph := &phase{result: result{correct: true}, counts: map[string]float64{}}
	k := b.inputs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0, steal0 := cpuTime(), stealTime()
	start := time.Now()
	for i := 0; i < k || time.Since(start) < dur; i++ {
		in := i % k
		tr.setOp(i + 1)
		t, c, st := time.Now(), cpuTime(), stealTime()
		out := b.run(in, tr)
		d := unstolen(time.Since(t), cpuTime()-c, stealTime()-st)
		ph.attempted += out.ops
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: input %d failed: %v\n", in, out.err)
			ph.failed += out.ops
			ph.correct = false
			continue
		}
		if !g.check(in, out) {
			ph.failed += out.ops
			ph.correct = false
			continue
		}
		ph.ops += out.ops
		ph.opMs = append(ph.opMs, float64(d)/1e6/float64(out.ops))
		if len(ph.first) < k {
			ph.first = append(ph.first, out)
		}
		for key, v := range out.counts {
			ph.counts[key] += v
		}
	}
	ph.wall, ph.cpu, ph.steal = time.Since(start), cpuTime()-cpu0, stealTime()-steal0
	ph.elapsed = unstolen(ph.wall, ph.cpu, ph.steal)
	runtime.ReadMemStats(&after)
	ph.allocB = float64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.liveB = float64(after.HeapAlloc)
	runtime.KeepAlive(b)
	return ph
}

func (ph *phase) opsPerS() float64 { return float64(ph.ops) / ph.elapsed.Seconds() }

// endToEnd computes the end-to-end metrics. The modeled ones come from
// the first full cycle over the inputs, so they do not depend on speed.
func (ph *phase) endToEnd(setupS float64) map[string]float64 {
	var simTask, simSession []float64
	admitted, offered := 0, 0
	for _, o := range ph.first {
		simTask = append(simTask, o.simTaskMs...)
		simSession = append(simSession, o.simSessionMs...)
		admitted += o.admitted
		offered += o.offered
	}
	geo, err := geomean(simTask)
	if err != nil {
		geo = math.NaN()
	}
	return map[string]float64{
		"ops_per_s":           ph.opsPerS(),
		"op_ms_p50":           percentile(ph.opMs, 50),
		"op_ms_p90":           percentile(ph.opMs, 90),
		"setup_s":             setupS,
		"alloc_kb_per_op":     ph.allocB / 1024 / float64(ph.ops),
		"live_heap_mb":        ph.liveB / (1 << 20),
		"sim_task_ms_geomean": geo,
		"sim_session_ms_p50":  median(simSession),
		"admit_frac":          ratio(float64(admitted), float64(offered)),
		"ok_frac":             1 - ratio(float64(ph.failed), float64(ph.attempted)),
	}
}

// perLayer computes the per-layer metrics from the traced phase's spans
// and counters. A layer the workload does not reach reads 0. The span an
// arrival's first admission attempt closes also covers resolving its app,
// so the measured app build cost is taken out of the planning time.
func (ph *phase) perLayer(lt map[string]layerTime, untracedOpsPerS float64) map[string]float64 {
	c := ph.counts
	ops := float64(ph.ops)
	plans := c["plans"]
	arrivals := c["arrivals"]
	ms := func(name string) float64 { return lt[name].Total * 1e3 }
	simTasks := c["sim.tasks"] + c["wave.tasks"]
	return map[string]float64{
		"apps.build_ms_per_op":               ratio(c["apps.build_ms"], ops),
		"profiler.ms_per_plan":               ratio(ms("profiler.ProfileBoth"), plans),
		"solver.visited_per_plan":            ratio(c["solver.visited"], plans),
		"solver.pruned_per_plan":             ratio(c["solver.pruned"], plans),
		"sched.candidates_ms_per_plan":       ratio(ms("sched.Candidates"), plans),
		"sched.autotune_ms_per_plan":         ratio(ms("sched.Autotune"), plans),
		"sched.candidates_per_plan":          ratio(c["sched.candidates"], plans),
		"pipeline.sim_us_per_task":           ratio((lt["pipeline.SimEngine.Run"].Total+lt[segWave].Total)*1e6, simTasks),
		"pipeline.real_allocs_per_task":      ratio(c["real.mallocs"], c["real.tasks"]),
		"pipeline.pool_busy_frac":            ratio(c["pool.busy_ns"], c["pool.cap_ns"]),
		"queue.wait_ms_per_task":             ratio(c["queue.wait_ns"]/1e6, c["real.tasks"]),
		"queue.stall_ms_per_task":            ratio(c["queue.stall_ns"]/1e6, c["real.tasks"]),
		"schedcache.hit_ratio":               ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]),
		"schedcache.misses_per_arrival":      ratio(c["cache.misses"], arrivals),
		"runtime.admit_attempts_per_arrival": ratio(c["attempts"], arrivals),
		"runtime.admit_yield":                admitYield(int(c["placed"]), int(c["attempts"])),
		"runtime.replans_per_arrival":        ratio(c["replans"], arrivals),
		"runtime.plan_ms_per_attempt":        ratio(max(ms(segAdmitAttempt)-c["apps.build_ms"], 0), c["sink.attempts"]),
		"runtime.replan_ms_per_arrival":      ratio(ms(segReplan), arrivals),
		"fleet.new_ms":                       ratio(ms("fleet.New"), float64(lt["fleet.New"].Count)),
		"fleet.spill_frac":                   ratio(c["spilled"], c["placed"]),
		"obs.events_per_op":                  ratio(c["events"], ops),
		"obs.trace_overhead_frac":            1 - ratio(ph.opsPerS(), untracedOpsPerS),
	}
}

// report prints the phase's sample counts to w.
func (ph *phase) report(w *os.File) {
	p := supportedPercentile(len(ph.opMs))
	fmt.Fprintf(w, "perfbench: %d ops in %d batches over %.2fs unstolen; op_ms samples support p%g (p90 needs 100)\n",
		ph.ops, len(ph.opMs), ph.elapsed.Seconds(), p)
	fmt.Fprintf(w, "perfbench: wall %.2fs, host steal %.2fs, process cpu %.2fs (%.4g ms per op)\n",
		ph.wall.Seconds(), ph.steal.Seconds(), ph.cpu.Seconds(), ph.cpu.Seconds()*1e3/float64(ph.ops))
	fmt.Fprintf(w, "perfbench: ops_per_s %.6g unstolen, %.6g by wall clock\n",
		ph.opsPerS(), float64(ph.ops)/ph.wall.Seconds())
}

// reportLayers prints each span name's count, total and self time.
func reportLayers(w *os.File, lt map[string]layerTime) {
	names := make([]string, 0, len(lt))
	for name := range lt {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "perfbench: %-28s %8s %10s %10s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		t := lt[name]
		fmt.Fprintf(w, "perfbench: %-28s %8d %10.4f %10.4f\n", name, t.Count, t.Total, t.Self)
	}
}

// printResult prints the metrics of list, which must be exactly those in
// values, as a table on standard error and as the JSON result line on
// standard output. A run that failed may lack the samples for some
// metrics; they read 0.
func printResult(res result, values map[string]float64, list []metric) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jsonMetric{}}
	if len(list) != len(values) {
		return fmt.Errorf("the spec lists %d metrics, the run computed %d", len(list), len(values))
	}
	var table strings.Builder
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is not computed", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if res.correct {
				return fmt.Errorf("metric %s has no finite value (%v)", m.Name, v)
			}
			v = 0
		}
		out.Metrics[m.Name] = jsonMetric{v, m.Unit}
		fmt.Fprintf(&table, "  %-36s %14.6g %-6s %s is better\n", m.Name, v, m.Unit, m.Better)
	}
	fmt.Fprint(os.Stderr, table.String())
	if out.Attempted < 1 {
		return fmt.Errorf("no op was attempted")
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
