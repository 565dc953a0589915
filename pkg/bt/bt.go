// Package bt is the public API of the BetterTogether framework: an
// interference-aware scheduler for fine-grained software pipelining on
// heterogeneous SoCs (IISWC 2025).
//
// The workflow mirrors the paper's Fig. 2:
//
//	app  := ...                      // stages with CPU+GPU kernels (1)
//	dev, _ := bt.DeviceByName("pixel7a") // target system spec (2)
//	tabs := bt.ProfileBoth(app, dev, bt.ProfileConfig{}) // BT-Profiler (3)
//	opt  := bt.NewOptimizer(app, dev, tabs)              // BT-Optimizer (4)
//	cands, tune, best, _ := opt.Optimize(bt.StrategyBetterTogether, bt.RunOptions{Tasks: 30})
//	plan, _ := bt.NewPlan(app, dev, best.Schedule)       // BT-Implementer (5)
//	result := bt.RealEngine{}.Run(ctx, plan, bt.RunOptions{Tasks: 30}) // real concurrent run
//
// or simply:
//
//	schedule, _ := bt.AutoSchedule(app, dev)
//
// Physical SoCs are unavailable in this environment, so devices are
// simulated (see DESIGN.md): SimEngine runs a schedule on a
// discrete-event model of the device with interference-aware service
// times, while RealEngine runs the application's real Go kernels
// concurrently through the dispatcher/queue machinery of Sec. 3.4.
package bt

import (
	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/trace"
)

// Core abstractions (paper Sec. 3.1).
type (
	// Stage is one unit of computation with CPU and GPU kernels.
	Stage = core.Stage
	// Application is a streaming pipeline of stages plus a TaskObject
	// factory.
	Application = core.Application
	// Schedule maps stages to PU classes.
	Schedule = core.Schedule
	// Chunk is a contiguous stage run on one PU class.
	Chunk = core.Chunk
	// TaskObject carries one streaming input through the pipeline.
	TaskObject = core.TaskObject
	// UsmBuffer is a zero-copy unified memory buffer: its Data slice,
	// read and written in place by both backends' kernels.
	UsmBuffer[T any] = core.UsmBuffer[T]
	// CostSpec describes a stage's work for the simulated SoC.
	CostSpec = core.CostSpec
	// PUClass names a processing-unit class ("big", "gpu", ...).
	PUClass = core.PUClass
	// Backend selects the CPU or GPU kernel of a stage.
	Backend = core.Backend
	// KernelFunc is one backend implementation of a stage.
	KernelFunc = core.KernelFunc
	// ParallelFor distributes an iteration space over a PU's lanes.
	ParallelFor = core.ParallelFor
	// TaskGraph is an acyclic stage graph; Linearize turns it into a
	// pipeline.
	TaskGraph = core.TaskGraph
	// ProfileTable is the stage × PU latency table.
	ProfileTable = core.ProfileTable
	// ProfileMode selects isolated or interference-heavy profiling.
	ProfileMode = core.ProfileMode
)

// Re-exported constants.
const (
	BackendCPU = core.BackendCPU
	BackendGPU = core.BackendGPU

	ClassBig    = core.ClassBig
	ClassMedium = core.ClassMedium
	ClassLittle = core.ClassLittle
	ClassGPU    = core.ClassGPU

	Isolated          = core.Isolated
	InterferenceHeavy = core.InterferenceHeavy
)

// NewTaskObject wraps an application payload for pipeline execution.
func NewTaskObject(payload any, reset func(*TaskObject)) *TaskObject {
	return core.NewTaskObject(payload, reset)
}

// NewUsmBuffer allocates a zero-copy unified buffer of n elements.
func NewUsmBuffer[T any](n int) *UsmBuffer[T] { return core.NewUsmBuffer[T](n) }

// NewUniformSchedule assigns every stage to one class (the homogeneous
// baselines of Sec. 5.1).
func NewUniformSchedule(n int, pu PUClass) Schedule { return core.NewUniformSchedule(n, pu) }

// Devices (paper Sec. 4.2, simulated).
type (
	// Device is a simulated SoC.
	Device = soc.Device
	// PU is one processing-unit class model.
	PU = soc.PU
)

// Catalog returns the four evaluation platforms: Pixel 7a, OnePlus 11,
// Jetson Orin Nano, and its low-power mode.
func Catalog() []*Device { return soc.Catalog() }

// DeviceByName looks up a catalog device ("pixel7a", "oneplus11",
// "jetson", "jetson-lp").
func DeviceByName(name string) (*Device, error) { return soc.DeviceByName(name) }

// Profiling (BT-Profiler, Sec. 3.2).
type (
	// ProfileConfig controls repetitions and seeding.
	ProfileConfig = profiler.Config
	// Tables bundles both profiling modes.
	Tables = profiler.Tables
)

// Profile builds a profiling table in one mode.
func Profile(app *Application, dev *Device, mode ProfileMode, cfg ProfileConfig) *ProfileTable {
	return profiler.Profile(app, dev, mode, cfg)
}

// ProfileBoth builds isolated and interference-heavy tables.
func ProfileBoth(app *Application, dev *Device, cfg ProfileConfig) Tables {
	return profiler.ProfileBoth(app, dev, cfg)
}

// Optimization (BT-Optimizer, Sec. 3.3).
type (
	// Optimizer runs the three-level schedule optimization.
	Optimizer = sched.Optimizer
	// Strategy selects the optimization recipe.
	Strategy = sched.Strategy
	// Candidate is one ranked schedule with its prediction.
	Candidate = sched.Candidate
	// AutotuneResult reports the executed-candidate measurements.
	AutotuneResult = sched.AutotuneResult
	// Objective selects the autotuning metric (latency, energy, EDP).
	Objective = sched.Objective
)

// Strategies.
const (
	// StrategyBetterTogether is the full interference-aware recipe.
	StrategyBetterTogether = sched.BetterTogether
	// StrategyLatencyOnly ranks by latency on the interference-aware
	// table without the utilization filter.
	StrategyLatencyOnly = sched.LatencyOnlyHeavy
	// StrategyIsolated is the prior-work baseline: isolated table,
	// latency-only ranking.
	StrategyIsolated = sched.LatencyOnlyIsolated

	// ObjectiveLatency is the paper's autotuning metric.
	ObjectiveLatency = sched.ObjectiveLatency
	// ObjectiveEnergy minimizes joules per task (extension).
	ObjectiveEnergy = sched.ObjectiveEnergy
	// ObjectiveEDP minimizes the energy-delay product (extension).
	ObjectiveEDP = sched.ObjectiveEDP
)

// NewOptimizer builds an optimizer with the paper's defaults (K=20).
func NewOptimizer(app *Application, dev *Device, tabs Tables) *Optimizer {
	return sched.New(app, dev, tabs)
}

// Execution (BT-Implementer, Sec. 3.4).
type (
	// Plan is a schedule compiled against an app and device.
	Plan = pipeline.Plan
	// RunOptions configure task counts, warmup, buffering and seeding.
	RunOptions = pipeline.Options
	// RunResult reports per-task completions and steady-state latency.
	RunResult = pipeline.Result
	// Timeline collects per-stage execution spans when set as
	// RunOptions.Trace; its Gantt method renders them.
	Timeline = trace.Timeline
	// Span is one stage execution in a Timeline.
	Span = trace.Span
	// Metrics collects per-stage dispatch/service metrics, per-queue
	// occupancy and backpressure, and per-pool utilization when set as
	// RunOptions.Metrics; its Table method renders them. Build with
	// NewMetrics so it is sized and labeled for the plan.
	Metrics = metrics.Pipeline
	// LatencyHistogram is the fixed-bucket histogram behind every
	// Metrics latency figure.
	LatencyHistogram = metrics.Histogram
	// PanicError is the typed error the Real engine returns for a
	// recovered kernel panic, attributing it to chunk, stage, and task.
	PanicError = pipeline.PanicError
	// ShutdownTimeoutError reports dispatchers that failed to join
	// within the Real engine's 30 s deadline.
	ShutdownTimeoutError = pipeline.ShutdownTimeoutError
)

// NewPlan validates and compiles a schedule.
func NewPlan(app *Application, dev *Device, s Schedule) (*Plan, error) {
	return pipeline.NewPlan(app, dev, s)
}

// Engine abstraction: both execution paths behind one interface.
type (
	// Engine is the uniform execution surface over the Sim and Real
	// paths; SimEngine and RealEngine implement it.
	Engine = pipeline.Engine
	// SimEngine executes plans on the device's discrete-event model
	// (virtual time, deterministic) — the paper's measurement path.
	SimEngine = pipeline.SimEngine
	// RealEngine runs the application's real kernels concurrently
	// through dispatcher goroutines and lock-free SPSC queues (wall
	// time). Canceling the run's context drains the pipeline and joins
	// every dispatcher (RunResult.Err carries ctx.Err()); kernel panics
	// surface as *PanicError; dispatchers that fail to join within 30 s
	// surface as *ShutdownTimeoutError instead of hanging the caller.
	RealEngine = pipeline.RealEngine
)

// EngineByName resolves an engine from its CLI name ("sim", "real").
func EngineByName(name string) (Engine, error) { return pipeline.ByName(name) }

// NewMetrics builds a metrics collector sized and labeled for the plan;
// pass it as RunOptions.Metrics to either engine and render it with its
// Table method after the run.
func NewMetrics(p *Plan) *Metrics { return pipeline.NewMetrics(p) }

// AutoSchedule is the one-call path: profile the application on the
// device, run the full three-level optimization, and return the selected
// schedule.
func AutoSchedule(app *Application, dev *Device) (Schedule, error) {
	tabs := ProfileBoth(app, dev, ProfileConfig{})
	opt := NewOptimizer(app, dev, tabs)
	_, _, best, err := opt.Optimize(StrategyBetterTogether, RunOptions{Tasks: 20, Warmup: 5})
	if err != nil {
		return Schedule{}, err
	}
	return best.Schedule, nil
}

// SaveTable writes a profiling table as JSON, for reuse across tool
// invocations (btprofile -o / btsched -tables).
func SaveTable(t *ProfileTable, path string) error { return core.SaveTable(t, path) }

// LoadTable reads a JSON profiling table written by SaveTable.
func LoadTable(path string) (*ProfileTable, error) { return core.LoadTable(path) }
