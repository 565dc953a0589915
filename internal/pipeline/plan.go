// Package pipeline is the BT-Implementer (paper Sec. 3.4): it executes a
// pipeline schedule on a target device, managing dispatchers, lock-free
// SPSC queues, TaskObject multi-buffering and recycling.
//
// Two engines share one compiled Plan:
//
//   - The Real engine runs the application's actual Go kernels on worker
//     pools sized like the device's PU classes, through exactly the
//     dispatcher loop the paper describes. It validates functional
//     behaviour and is what the examples drive.
//   - The Sim engine replays the same schedule on the discrete-event
//     simulator with the SoC model's interference-aware service times. It
//     produces the paper's "measured" numbers deterministically and is
//     what every experiment uses.
package pipeline

import (
	"fmt"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// Plan is a schedule compiled against an application and a device, ready
// for either engine.
type Plan struct {
	App      *core.Application
	Device   *soc.Device
	Schedule core.Schedule
	Chunks   []core.Chunk
}

// NewPlan validates and compiles a schedule.
func NewPlan(app *core.Application, dev *soc.Device, s core.Schedule) (*Plan, error) {
	p := &Plan{App: app, Device: dev, Schedule: s, Chunks: s.Chunks()}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Validate checks the plan's consistency: application, device, and
// schedule validity plus chunk/schedule agreement. NewPlan output always
// passes; the engine driver re-checks before every run so hand-built
// plans fail with a typed error instead of a panic deep in an engine.
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("pipeline: nil plan")
	}
	if p.App == nil {
		return fmt.Errorf("pipeline: plan has no application")
	}
	if p.Device == nil {
		return fmt.Errorf("pipeline: plan has no device")
	}
	if err := p.App.Validate(); err != nil {
		return err
	}
	if err := p.Device.Validate(); err != nil {
		return err
	}
	// The device's classes and the schedule's chunks are walked in place
	// rather than built: the driver validates before every run.
	var buf [8]core.PUClass
	classes := buf[:0]
	for i := range p.Device.PUs {
		classes = append(classes, p.Device.PUs[i].Class)
	}
	if err := p.Schedule.Validate(len(p.App.Stages), classes); err != nil {
		return err
	}
	assign := p.Schedule.Assign
	n := 0
	for i := range assign {
		if i == 0 || assign[i] != assign[i-1] {
			n++
		}
	}
	if len(p.Chunks) != n {
		return fmt.Errorf("pipeline: plan has %d chunks, schedule compiles to %d", len(p.Chunks), n)
	}
	for i, start := 0, 0; start < len(assign); i++ {
		end := start + 1
		for end < len(assign) && assign[end] == assign[start] {
			end++
		}
		if c := (core.Chunk{PU: assign[start], Start: start, End: end}); p.Chunks[i] != c {
			return fmt.Errorf("pipeline: plan chunk %d is %+v, schedule compiles to %+v", i, p.Chunks[i], c)
		}
		start = end
	}
	return nil
}

// Backend returns the kernel backend of chunk i.
func (p *Plan) Backend(i int) core.Backend {
	return p.Device.PU(p.Chunks[i].PU).Kind.Backend()
}

// Options configure an execution run.
type Options struct {
	// Tasks is the number of stream tasks to process after warmup.
	// The paper's runs use 30 (Sec. 4).
	Tasks int
	// Warmup tasks are executed and excluded from metrics, as the paper
	// excludes GPU initialization and pipeline fill.
	Warmup int
	// Buffers is the TaskObject multi-buffering depth; 0 means
	// chunks+1, the minimum that keeps every chunk busy.
	Buffers int
	// Seed drives measurement noise in the Sim engine.
	Seed int64
	// Trace, when non-nil, receives one span per stage execution
	// (chunk, PU, stage, task, start/end) — virtual seconds from the
	// Sim engine, wall seconds from the Real engine.
	Trace *trace.Timeline
	// Metrics, when non-nil, receives runtime metrics from either
	// engine: per-stage dispatch counts and service-time histograms,
	// per-queue wait/stall/occupancy, and per-pool utilization. Build a
	// correctly sized collector with NewMetrics(plan). Recording is
	// lock-free and must not perturb the Sim engine's determinism.
	Metrics *metrics.Pipeline
	// GPUPoolWidth is the worker width of the simulated-SIMT GPU
	// executor: the Real engine sizes the GPU worker pool with it, and
	// both engines account pool utilization against it. Real kernels are
	// CPU-bound Go code here, so the width models "many lanes" without
	// oversubscribing the host. <= 0 selects DefaultGPUPoolWidth.
	GPUPoolWidth int
	// Events, when non-nil, receives typed observability events from the
	// engine driver and executors: RunStart/RunEnd around every run,
	// StageDone per stage execution (both engines), QueueStall on
	// producer-side backpressure and PanicRecovered on contained kernel
	// panics (Real engine). Emission is allocation-free and never blocks;
	// it does not perturb the Sim engine's virtual timeline (results are
	// bit-identical with and without a sink, pinned by test). The runtime
	// layer passes an obs.WithSession-wrapped sink here so one shared
	// stream carries every session's events under its own identity.
	Events obs.Sink
	// BaseEnv is an external interference environment overlaid on every
	// chunk's environment by the Sim engine: PU classes busy on behalf of
	// *other* workloads sharing the device, as the runtime layer's
	// resident sessions are. Loads on a class a chunk also uses combine
	// with saturation (soc.Env.Add). Nil means the plan has the device to
	// itself — the original single-app behaviour, bit-identical. The Real
	// engine ignores it: wall-clock kernels experience actual host
	// contention instead of modeled contention.
	BaseEnv soc.Env

	// shutdownTimeout, when positive, replaces defaultShutdownTimeout as
	// the Real engine's join deadline. Only the package's tests set it,
	// to reach the deadline path in milliseconds.
	shutdownTimeout time.Duration
}

// DefaultGPUPoolWidth is the GPU worker-pool width used when
// Options.GPUPoolWidth is unset.
const DefaultGPUPoolWidth = 8

// withDefaults fills derived option values for a plan.
func (o Options) withDefaults(p *Plan) Options {
	if o.Tasks <= 0 {
		o.Tasks = 30
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.Buffers <= 0 {
		o.Buffers = len(p.Chunks) + 1
	}
	if o.GPUPoolWidth <= 0 {
		o.GPUPoolWidth = DefaultGPUPoolWidth
	}
	return o
}

// Result reports one execution run.
type Result struct {
	// Completions are per-task completion timestamps in seconds (virtual
	// for Sim, wall for Real), warmup excluded.
	Completions []float64
	// Elapsed is the span from first measured dispatch to last
	// completion.
	Elapsed float64
	// PerTask is the steady-state per-task latency: the mean
	// inter-completion period, the throughput-side quantity the paper
	// reports as pipeline latency.
	PerTask float64
	// ChunkBusy[i] is the fraction of the run chunk i spent executing —
	// the utilization view behind the gapness objective (Sim only).
	ChunkBusy []float64
	// EnergyJ is the total device energy over the whole run in joules,
	// integrating per-PU busy power at the governed clock, idle power,
	// and uncore draw (Sim only; see soc.Device.Power).
	EnergyJ float64
	// EnergyPerTaskJ is EnergyJ divided by every task processed
	// (including warmup, which also burned energy).
	EnergyPerTaskJ float64
	// AvgWatts is the mean device power over the run (Sim only).
	AvgWatts float64
	// Err is set by the Real engine when the run did not finish cleanly:
	// a *PanicError for a recovered kernel panic, the context error for
	// a canceled run, or a *ShutdownTimeoutError when dispatchers failed
	// to join. The pipeline shuts down instead of deadlocking and
	// reports what happened here.
	Err error
}

// finalize computes derived metrics from completion timestamps. busy
// entries are already fractions of the run.
func finalize(completions []float64, start float64, busy []float64) Result {
	r := Result{Completions: completions, ChunkBusy: busy}
	if len(completions) == 0 {
		return r
	}
	last := completions[len(completions)-1]
	r.Elapsed = last - start
	if len(completions) > 1 {
		r.PerTask = (last - completions[0]) / float64(len(completions)-1)
	} else {
		r.PerTask = r.Elapsed
	}
	return r
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("tasks=%d perTask=%.3fms elapsed=%.3fms",
		len(r.Completions), r.PerTask*1e3, r.Elapsed*1e3)
}
