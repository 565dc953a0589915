// Package soc simulates the heterogeneous edge SoCs the paper evaluates
// on (Google Pixel 7a, OnePlus 11, NVIDIA Jetson Orin Nano in normal and
// low-power mode). The real devices are unavailable in this environment,
// so the simulator supplies the *phenomena* BetterTogether exists to
// handle:
//
//   - per-PU performance heterogeneity (out-of-order big cores vs in-order
//     little cores vs lockstep SIMT GPUs, Sec. 2.1);
//   - intra-application interference: execution time on one PU depends on
//     what the other PUs are doing, through shared-DRAM bandwidth
//     contention, shared last-level caches, and vendor DVFS governors
//     that throttle or boost clocks under load (Sec. 5.3);
//   - measurement noise.
//
// The framework proper (profiler, optimizer, implementer) treats this
// package exactly as it would treat real silicon: it only ever observes
// sampled latencies. Nothing outside internal/soc reads the analytic
// model.
package soc

import (
	"fmt"
	"math"

	"bettertogether/internal/core"
)

// PU models one processing-unit class: a cluster of identical CPU cores
// or an integrated GPU.
type PU struct {
	// Class is the schedulable identity ("big", "medium", "little", "gpu").
	Class core.PUClass
	// Kind distinguishes CPU clusters from GPUs.
	Kind core.PUKind
	// Cores is the number of CPU cores in the cluster, or the number of
	// shader cores / streaming multiprocessors for a GPU.
	Cores int
	// CoreIDs lists the device-local logical core IDs of the cluster —
	// the affinity map of the target-system specification (paper Fig. 2,
	// input 2). Empty for GPUs.
	CoreIDs []int
	// BaseGHz is the nominal clock.
	BaseGHz float64
	// EffFlopsPerCycle is the *achieved* flops per cycle per core (or per
	// GPU lane) for regular, well-parallelized code — it folds in ISA
	// width and typical compiler efficiency, which is why CPU values are
	// well below architectural peak.
	EffFlopsPerCycle float64
	// Lanes is the SIMT width per GPU shader core (0 for CPUs).
	Lanes int
	// ScalarFlopsPerCycle is the achieved flops/cycle of a *single
	// thread* of serial code on this PU. For CPUs it defaults to
	// EffFlopsPerCycle (an out-of-order core runs serial code about as
	// well as parallel code); for GPUs it must be set explicitly and is
	// small, because one SIMT lane is in-order and latency-bound.
	ScalarFlopsPerCycle float64
	// IrregPenalty is the exponential decay rate of throughput with
	// memory-access irregularity: efficiency = exp(-IrregPenalty × I).
	// Small for big out-of-order cores, larger for in-order little cores,
	// largest for GPUs whose coalescing collapses under indirection
	// (Sec. 2.1).
	IrregPenalty float64
	// DivergencePenalty is the exponential decay rate of GPU throughput
	// with control-flow divergence: efficiency = exp(-DivergencePenalty ×
	// D). Divergent warps serialize lane groups and split memory
	// transactions, so the compounding is multiplicative. 0 for CPUs.
	DivergencePenalty float64
	// LaunchOverheadSec is the fixed per-kernel dispatch cost: OpenMP
	// fork/join for CPU clusters, CUDA/Vulkan submission for GPUs.
	LaunchOverheadSec float64
	// MemBWGBs is the DRAM bandwidth this PU can draw when alone.
	MemBWGBs float64
	// OccupancyItemsPerLane is how many resident work items per lane a
	// GPU needs to hide memory latency; kernels with fewer run at
	// proportionally reduced occupancy. 0 for CPUs.
	OccupancyItemsPerLane float64
	// IdleWatts and BusyWatts bound the cluster's power draw: idle but
	// powered, and fully loaded at nominal clock. Dynamic power scales
	// with the cube of the DVFS multiplier (see Device.Power).
	IdleWatts, BusyWatts float64
}

// TotalLanes returns the number of parallel execution lanes: CPU cores,
// or SMs × SIMT width for GPUs.
func (p *PU) TotalLanes() int {
	if p.Kind == core.KindGPU {
		return p.Cores * p.Lanes
	}
	return p.Cores
}

// laneRate returns achieved flops/s of a single lane at clock multiplier
// mult, before irregularity penalties.
func (p *PU) laneRate(mult float64) float64 {
	return p.BaseGHz * 1e9 * p.EffFlopsPerCycle * mult
}

// scalarRate returns achieved flops/s of a single serial thread.
func (p *PU) scalarRate(mult float64) float64 {
	sf := p.ScalarFlopsPerCycle
	if sf == 0 {
		sf = p.EffFlopsPerCycle
	}
	return p.BaseGHz * 1e9 * sf * mult
}

// parallelFactors returns the clock-independent efficiency and
// occupancy of cost's parallel part on this PU: throughput degraded
// exponentially by irregularity (CPU and GPU) and by divergence (GPU
// only), and the fraction of GPU lanes the kernel's work items keep
// resident. These are the model's only transcendental terms, so Terms
// evaluates them once per (kernel, PU) rather than once per estimate.
func (p *PU) parallelFactors(cost core.CostSpec) (eff, occ float64) {
	eff = math.Exp(-cost.Irregularity * p.IrregPenalty)
	occ = 1.0
	if p.Kind == core.KindGPU {
		eff *= math.Exp(-cost.Divergence * p.DivergencePenalty)
		need := float64(p.TotalLanes()) * p.OccupancyItemsPerLane
		if need > 0 && cost.WorkItems < need {
			occ = cost.WorkItems / need
			if occ < 0.01 {
				occ = 0.01
			}
		}
	}
	return eff, occ
}

// computeSeconds returns the pure compute time of cost on this PU at the
// given clock multiplier, ignoring memory contention: an Amdahl
// decomposition into a single-thread serial part and a parallel part at
// the efficiency and occupancy parallelFactors computed.
func (p *PU) computeSeconds(cost core.CostSpec, eff, occ, mult float64) float64 {
	if cost.FLOPs == 0 {
		return 0
	}
	serial := (1 - cost.ParallelFraction) * cost.FLOPs / p.scalarRate(mult)
	parallel := cost.ParallelFraction * cost.FLOPs /
		(p.laneRate(mult) * float64(p.TotalLanes()) * eff * occ)
	return serial + parallel
}

// memSecondsAlone returns the DRAM streaming time with the PU's full
// bandwidth to itself.
func (p *PU) memSecondsAlone(cost core.CostSpec) float64 {
	if cost.Bytes == 0 || p.MemBWGBs == 0 {
		return 0
	}
	return cost.Bytes / (p.MemBWGBs * 1e9)
}

// Validate checks parameter sanity.
func (p *PU) Validate() error {
	switch {
	case p.Class == "":
		return fmt.Errorf("soc: PU has empty class")
	case p.Cores <= 0:
		return fmt.Errorf("soc: PU %q has %d cores", p.Class, p.Cores)
	case p.BaseGHz <= 0 || p.EffFlopsPerCycle <= 0:
		return fmt.Errorf("soc: PU %q has non-positive rate parameters", p.Class)
	case p.Kind == core.KindGPU && p.Lanes <= 0:
		return fmt.Errorf("soc: GPU %q needs Lanes > 0", p.Class)
	case p.Kind == core.KindCPU && p.Lanes != 0:
		return fmt.Errorf("soc: CPU %q must not set Lanes", p.Class)
	case p.IrregPenalty < 0 || p.IrregPenalty > 8 || p.DivergencePenalty < 0 || p.DivergencePenalty > 8:
		return fmt.Errorf("soc: PU %q penalty rates outside [0,8]", p.Class)
	case p.Kind == core.KindGPU && p.ScalarFlopsPerCycle <= 0:
		return fmt.Errorf("soc: GPU %q needs an explicit ScalarFlopsPerCycle", p.Class)
	case p.MemBWGBs <= 0:
		return fmt.Errorf("soc: PU %q needs memory bandwidth", p.Class)
	case math.IsNaN(p.LaunchOverheadSec) || p.LaunchOverheadSec < 0:
		return fmt.Errorf("soc: PU %q has invalid launch overhead", p.Class)
	}
	return nil
}
