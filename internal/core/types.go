// Package core defines the abstractions of the BetterTogether framework
// (paper Sec. 3.1): Stages implemented by per-backend compute kernels,
// Applications as stage sequences (or linearized task graphs), Chunks as
// contiguous stage runs that form the unit of scheduling, Schedules that
// map stages to processing-unit classes, TaskObjects that carry one
// streaming input through the pipeline, and UsmBuffers that model
// zero-copy unified memory.
//
// core is dependency-free within the project so every other package
// (workloads, SoC simulator, profiler, optimizer, implementer) can share
// these types without cycles.
package core

import "fmt"

// Backend identifies which kernel implementation family executes a stage:
// the host-side (OpenMP in the paper, worker-pool goroutines here) or the
// device-side (CUDA/Vulkan in the paper, the simulated-SIMT executor here).
type Backend int

const (
	// BackendCPU is the host-side implementation.
	BackendCPU Backend = iota
	// BackendGPU is the device-side implementation.
	BackendGPU
)

// String returns "cpu" or "gpu".
func (b Backend) String() string {
	switch b {
	case BackendCPU:
		return "cpu"
	case BackendGPU:
		return "gpu"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// PUKind distinguishes CPU core clusters from GPUs.
type PUKind int

const (
	// KindCPU marks a cluster of identical CPU cores (big, medium, little).
	KindCPU PUKind = iota
	// KindGPU marks an integrated GPU.
	KindGPU
)

// String returns "CPU" or "GPU".
func (k PUKind) String() string {
	if k == KindGPU {
		return "GPU"
	}
	return "CPU"
}

// Backend returns the kernel backend a PU of this kind executes.
func (k PUKind) Backend() Backend {
	if k == KindGPU {
		return BackendGPU
	}
	return BackendCPU
}

// PUClass names a schedulable processing-unit class on a device, e.g.
// "big", "medium", "little", "gpu". A class is the column unit of the
// profiling table and the assignment target of the optimizer: a chunk
// scheduled on class "big" uses *all* big cores through the class's
// worker pool, exactly as the paper's OpenMP kernels use all cores of the
// pinned cluster.
type PUClass string

// Common class names used by the device catalog. Devices may define
// additional classes; these constants only canonicalize spelling.
const (
	ClassBig    PUClass = "big"
	ClassMedium PUClass = "medium"
	ClassLittle PUClass = "little"
	ClassGPU    PUClass = "gpu"
)

// CostSpec is the analytic descriptor of one stage's work per task,
// consumed by the SoC performance model. The paper's profiler treats
// kernels as black boxes and only observes latency; CostSpec is the
// "ground truth physics" of the simulated device from which those
// observable latencies are generated. The framework itself never reads
// these fields — only internal/soc does.
type CostSpec struct {
	// FLOPs is the arithmetic work per task (multiply and add counted
	// separately).
	FLOPs float64
	// Bytes is the DRAM traffic per task, the quantity that contends for
	// the shared memory controller across PUs.
	Bytes float64
	// ParallelFraction is the Amdahl-parallel share of the work in [0,1];
	// the remainder runs on a single lane.
	ParallelFraction float64
	// Divergence in [0,1] measures control-flow divergence: how badly
	// lockstep SIMT lanes are serialized (1 = fully serialized warps).
	Divergence float64
	// Irregularity in [0,1] measures memory-access irregularity (pointer
	// chasing, indirection): it degrades in-order little cores and GPU
	// coalescing more than out-of-order big cores.
	Irregularity float64
	// WorkItems is the available data parallelism per task, which bounds
	// GPU occupancy: kernels with few work items cannot fill an iGPU.
	WorkItems float64
	// Dispatches is the number of separate kernel dispatches (OpenMP
	// parallel regions / CUDA launches / Vulkan dispatches with
	// barriers) one execution of the stage needs. Multi-pass algorithms
	// like radix sort pay per-dispatch launch overhead several times.
	// 0 means 1.
	Dispatches float64
}

// Validate checks that the fractional fields are within their domains.
func (c CostSpec) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("core: CostSpec.%s = %v outside [0,1]", name, v)
		}
		return nil
	}
	if c.FLOPs < 0 || c.Bytes < 0 || c.WorkItems < 0 || c.Dispatches < 0 {
		return fmt.Errorf("core: CostSpec has negative work (flops=%v bytes=%v items=%v dispatches=%v)",
			c.FLOPs, c.Bytes, c.WorkItems, c.Dispatches)
	}
	if err := check("ParallelFraction", c.ParallelFraction); err != nil {
		return err
	}
	if err := check("Divergence", c.Divergence); err != nil {
		return err
	}
	return check("Irregularity", c.Irregularity)
}
