package pipeline

import (
	"context"
	"fmt"
	"time"

	"bettertogether/internal/obs"
)

// Engine is the uniform execution surface over the package's two
// implementations. Both run the same compiled Plan through the same
// driver — plan validation, option resolution, metrics wiring, and
// result finalization are shared — and differ only in how a resolved run
// is executed:
//
//   - SimEngine replays the schedule on the discrete-event simulator with
//     the SoC model's interference-aware service times (virtual time,
//     deterministic — the paper's measurement path).
//   - RealEngine runs the application's actual Go kernels concurrently on
//     worker pools through dispatcher goroutines and lock-free SPSC
//     queues (wall time — functional validation).
//
// Callers that need to execute a plan without caring which path it takes
// (the runtime layer, cmd/btrun) program against this interface.
type Engine interface {
	// Run executes the plan and returns the finalized result. A plan
	// that fails validation, or a ctx already canceled at entry, returns
	// a Result whose Err carries the reason without starting the run.
	Run(ctx context.Context, p *Plan, opts Options) Result
	// Name is the engine's stable CLI identity ("sim", "real").
	Name() string
}

// SimEngine executes plans on the discrete-event simulator. The run is
// synchronous and effectively instant in wall time; ctx is honored at
// entry only (a started simulation always completes — determinism of the
// virtual timeline is a hard requirement).
type SimEngine struct{}

// Name implements Engine.
func (SimEngine) Name() string { return "sim" }

// Run implements Engine.
func (SimEngine) Run(ctx context.Context, p *Plan, opts Options) Result {
	return drive(ctx, p, opts, simRun)
}

// RealEngine executes plans with the application's actual kernels
// concurrently: one long-lived dispatcher goroutine per chunk, SPSC
// queues between chunks, TaskObjects recycled through the closing edge
// of the ring (paper Sec. 3.4). Wall times are host times — useful for
// functional validation and relative comparison, not for reproducing
// device numbers (that is SimEngine's job). Run keeps a lifecycle
// contract:
//
//   - Cancellation: when ctx is canceled the ring closes, in-flight
//     tasks drain (no new tasks are issued), every dispatcher joins, and
//     Result.Err carries ctx.Err(). Completions recorded before the
//     cancel are preserved.
//   - Panic isolation: a panicking kernel — on a dispatcher or on any
//     pool worker lane — shuts the pipeline down instead of crashing the
//     process; Result.Err is a *PanicError attributing the panic to its
//     chunk, stage, and task, with the original stack.
//   - Bounded join: dispatchers are joined with a 30 s deadline. If a
//     kernel never returns, Result.Err is a *ShutdownTimeoutError and
//     the stalled goroutines are leaked loudly rather than deadlocking
//     the caller.
//
// When Options.Metrics is set, the dispatchers additionally record
// per-stage dispatch counts and service times, per-edge waits, stalls and
// occupancy, and per-pool utilization; recording is lock-free and
// allocation-free.
type RealEngine struct{}

// Name implements Engine.
func (RealEngine) Name() string { return "real" }

// Run implements Engine.
func (RealEngine) Run(ctx context.Context, p *Plan, opts Options) Result {
	return drive(ctx, p, opts, realRun)
}

var (
	_ Engine = SimEngine{}
	_ Engine = RealEngine{}
)

// ByName resolves an engine from its CLI name.
func ByName(name string) (Engine, error) {
	switch name {
	case "sim":
		return SimEngine{}, nil
	case "real":
		return RealEngine{}, nil
	}
	return nil, fmt.Errorf("pipeline: unknown engine %q (have sim, real)", name)
}

// runOutcome is the raw product an executor hands back to the shared
// driver: completion timestamps plus engine-specific extras the driver
// folds into the finalized Result.
type runOutcome struct {
	// completions are per-task completion timestamps, warmup excluded.
	completions []float64
	// measureStart is when the measured window opened.
	measureStart float64
	// chunkBusy is the per-chunk busy fraction (Sim only).
	chunkBusy []float64
	// energyJ/energyPerTaskJ/avgWatts are the energy figures (Sim only).
	energyJ, energyPerTaskJ, avgWatts float64
	// err is the run's terminal error, if it did not finish cleanly.
	err error
}

// drive is the shared engine driver: it validates the plan, resolves
// options, wires the metrics collector (logical queue capacities and
// resolved pool widths — identical whichever engine fills the rows),
// executes, and finalizes the result. Engine implementations are thin
// executors over this.
func drive(ctx context.Context, p *Plan, opts Options, exec func(context.Context, *Plan, Options) runOutcome) Result {
	if err := p.Validate(); err != nil {
		return Result{Err: err}
	}
	opts = opts.withDefaults(p)
	if m := opts.Metrics; m != nil {
		// Caps report the logical ring depth (the Real engine's physical
		// SPSC buffers round up to a power of two underneath).
		for e := 0; e < len(p.Chunks); e++ {
			m.Queue(e).Cap = opts.Buffers + 1
		}
		for i, class := range poolOrder(p) {
			m.Pool(i).Width = opts.poolWidth(p, class)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{Err: err}
	}
	if ev := opts.Events; ev != nil {
		e := obs.NewEvent(obs.KindRunStart)
		e.Task = opts.Tasks
		e.Detail = fmt.Sprintf("%s tasks=%d warmup=%d", p.App.Name, opts.Tasks, opts.Warmup)
		ev.Emit(e)
	}
	out := exec(ctx, p, opts)
	r := finalize(out.completions, out.measureStart, out.chunkBusy)
	r.EnergyJ, r.EnergyPerTaskJ, r.AvgWatts = out.energyJ, out.energyPerTaskJ, out.avgWatts
	r.Err = out.err
	if ev := opts.Events; ev != nil {
		e := obs.NewEvent(obs.KindRunEnd)
		e.Task = len(r.Completions)
		e.Dur = time.Duration(r.Elapsed * float64(time.Second))
		if r.Err != nil {
			e.Detail = r.Err.Error()
		}
		ev.Emit(e)
	}
	return r
}
