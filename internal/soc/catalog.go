package soc

import (
	"fmt"

	"bettertogether/internal/core"
)

// Device names used throughout experiments, matching the paper's four
// evaluation platforms (Table 2; the Jetson appears twice because its
// low-power mode is treated as a separate device).
const (
	Pixel7a   = "pixel7a"
	OnePlus11 = "oneplus11"
	Jetson    = "jetson"
	JetsonLP  = "jetson-lp"
)

// Catalog returns fresh models of the four evaluation platforms. Numeric
// parameters are calibrated so the simulator reproduces the *shape* of
// the paper's measurements: per-stage PU orderings (Fig. 1), CPU-vs-GPU
// baseline ratios (Table 3), and interference ratios (Fig. 7). Effective
// flops/cycle values are far below architectural peak because they model
// the paper's portable, unvectorized OpenMP/Vulkan kernels, not tuned
// vendor libraries.
func Catalog() []*Device {
	return []*Device{
		NewPixel7a(),
		NewOnePlus11(),
		NewJetson(),
		NewJetsonLP(),
	}
}

// DeviceByName returns a fresh model of the catalog device with the
// given name, building only that device.
func DeviceByName(name string) (*Device, error) {
	switch name {
	case Pixel7a:
		return NewPixel7a(), nil
	case OnePlus11:
		return NewOnePlus11(), nil
	case Jetson:
		return NewJetson(), nil
	case JetsonLP:
		return NewJetsonLP(), nil
	}
	return nil, fmt.Errorf("soc: unknown device %q (have pixel7a, oneplus11, jetson, jetson-lp)", name)
}

// NewPixel7a models the Google Pixel 7a: Tensor G2 with 2× Cortex-X1
// (big), 2× Cortex-A78 (medium), 4× Cortex-A55 (little) and an Arm
// Mali-G710 MP7 GPU driven through Vulkan. Full 8-core affinity control.
func NewPixel7a() *Device {
	return &Device{
		Name:  Pixel7a,
		Label: "Google Pixel 7a",
		PUs: []PU{
			{
				Class: core.ClassBig, Kind: core.KindCPU,
				Cores: 2, CoreIDs: []int{6, 7}, BaseGHz: 2.85,
				EffFlopsPerCycle: 0.20, IrregPenalty: 0.30,
				LaunchOverheadSec: 18e-6, MemBWGBs: 11,
				IdleWatts: 0.12, BusyWatts: 3.6,
			},
			{
				Class: core.ClassMedium, Kind: core.KindCPU,
				Cores: 2, CoreIDs: []int{4, 5}, BaseGHz: 2.35,
				EffFlopsPerCycle: 0.17, IrregPenalty: 0.45,
				LaunchOverheadSec: 18e-6, MemBWGBs: 9,
				IdleWatts: 0.08, BusyWatts: 1.9,
			},
			{
				Class: core.ClassLittle, Kind: core.KindCPU,
				Cores: 4, CoreIDs: []int{0, 1, 2, 3}, BaseGHz: 1.80,
				EffFlopsPerCycle: 0.085, IrregPenalty: 0.90,
				LaunchOverheadSec: 22e-6, MemBWGBs: 5,
				IdleWatts: 0.05, BusyWatts: 0.9,
			},
			{
				Class: core.ClassGPU, Kind: core.KindGPU,
				Cores: 7, Lanes: 16, BaseGHz: 0.85,
				EffFlopsPerCycle: 1.3, ScalarFlopsPerCycle: 0.15,
				IrregPenalty: 2.8, DivergencePenalty: 4.0,
				LaunchOverheadSec: 150e-6, MemBWGBs: 17,
				OccupancyItemsPerLane: 6,
				IdleWatts:             0.15, BusyWatts: 4.2,
			},
		},
		DRAMBWGBs: 20,
		Governor: &DVFSGovernor{
			NumClasses: 4,
			LoadedMult: map[core.PUClass]float64{
				core.ClassBig:    0.73, // thermal-budget throttle
				core.ClassMedium: 0.86,
				core.ClassLittle: 0.74,
				core.ClassGPU:    1.35, // firmware boosts GPU under CPU load
			},
		},
		NoiseSigma:  0.05,
		UncoreWatts: 0.8,
	}
}

// NewOnePlus11 models the OnePlus 11: Snapdragon 8 Gen 2 with 1×
// Cortex-X3 (big), 2× Cortex-A715 (medium), 3× Cortex-A510 (little) and a
// Qualcomm Adreno 740 GPU driven through Vulkan. Only 5 of 8 cores accept
// affinity pinning, so the 2× Cortex-A710 cluster is not schedulable and
// does not appear as a PU class.
func NewOnePlus11() *Device {
	return &Device{
		Name:  OnePlus11,
		Label: "OnePlus 11",
		PUs: []PU{
			{
				Class: core.ClassBig, Kind: core.KindCPU,
				Cores: 1, CoreIDs: []int{7}, BaseGHz: 3.2,
				EffFlopsPerCycle: 0.45, IrregPenalty: 0.28,
				LaunchOverheadSec: 16e-6, MemBWGBs: 12,
				IdleWatts: 0.10, BusyWatts: 3.0,
			},
			{
				Class: core.ClassMedium, Kind: core.KindCPU,
				Cores: 2, CoreIDs: []int{5, 6}, BaseGHz: 2.8,
				EffFlopsPerCycle: 0.19, IrregPenalty: 0.42,
				LaunchOverheadSec: 16e-6, MemBWGBs: 10,
				IdleWatts: 0.08, BusyWatts: 2.2,
			},
			{
				Class: core.ClassLittle, Kind: core.KindCPU,
				Cores: 3, CoreIDs: []int{0, 1, 2}, BaseGHz: 2.0,
				EffFlopsPerCycle: 0.09, IrregPenalty: 0.85,
				LaunchOverheadSec: 20e-6, MemBWGBs: 6,
				IdleWatts: 0.05, BusyWatts: 0.8,
			},
			{
				Class: core.ClassGPU, Kind: core.KindGPU,
				Cores: 8, Lanes: 16, BaseGHz: 0.90,
				EffFlopsPerCycle: 1.3, ScalarFlopsPerCycle: 0.15,
				IrregPenalty: 2.0, DivergencePenalty: 4.4,
				LaunchOverheadSec: 130e-6, MemBWGBs: 21,
				OccupancyItemsPerLane: 6,
				IdleWatts:             0.15, BusyWatts: 4.8,
			},
		},
		DRAMBWGBs: 26,
		Governor: &DVFSGovernor{
			NumClasses: 4,
			LoadedMult: map[core.PUClass]float64{
				core.ClassBig:    0.72,
				core.ClassMedium: 1.04, // unaffected on this device (Fig. 7)
				core.ClassLittle: 2.00, // A510 cluster boosts under load
				core.ClassGPU:    2.00, // strong firmware GPU boost
			},
		},
		NoiseSigma:  0.05,
		UncoreWatts: 0.9,
	}
}

// NewJetson models the NVIDIA Jetson Orin Nano 8GB: 6× Cortex-A78AE in a
// single homogeneous cluster plus an Ampere iGPU driven through CUDA.
// CPU and GPU share the last-level cache (Sec. 2.1), so irregular
// working sets interfere beyond DRAM bandwidth.
func NewJetson() *Device {
	return &Device{
		Name:  Jetson,
		Label: "Jetson Orin Nano",
		PUs: []PU{
			{
				Class: core.ClassBig, Kind: core.KindCPU,
				Cores: 6, CoreIDs: []int{0, 1, 2, 3, 4, 5}, BaseGHz: 1.7,
				EffFlopsPerCycle: 0.50, IrregPenalty: 0.35,
				LaunchOverheadSec: 12e-6, MemBWGBs: 25,
				IdleWatts: 0.5, BusyWatts: 9.0,
			},
			{
				Class: core.ClassGPU, Kind: core.KindGPU,
				Cores: 8, Lanes: 128, BaseGHz: 0.625,
				EffFlopsPerCycle: 0.35, ScalarFlopsPerCycle: 0.25,
				IrregPenalty: 1.2, DivergencePenalty: 1.6,
				LaunchOverheadSec: 25e-6, MemBWGBs: 42,
				OccupancyItemsPerLane: 4,
				IdleWatts:             0.6, BusyWatts: 12.0,
			},
		},
		DRAMBWGBs:  45,
		SharedLLC:  true,
		LLCPenalty: 0.70,
		Governor: &DVFSGovernor{
			NumClasses: 2,
			LoadedMult: map[core.PUClass]float64{
				core.ClassBig: 0.84, // power-budget sharing with the GPU
				core.ClassGPU: 0.94,
			},
		},
		NoiseSigma:  0.02,
		UncoreWatts: 2.5,
	}
}

// NewJetsonLP models the Jetson Orin Nano's 7W low-power mode: two CPU
// cores shut off, the remaining four clocked at 729 MHz, and the memory
// controller slowed. The GPU keeps its clocks but the shrunken DRAM
// budget makes it far more sensitive to CPU co-location (Fig. 7 shows a
// 1.74× GPU slowdown in this mode).
func NewJetsonLP() *Device {
	return &Device{
		Name:  JetsonLP,
		Label: "Jetson Orin Nano (low-power)",
		PUs: []PU{
			{
				Class: core.ClassBig, Kind: core.KindCPU,
				Cores: 4, CoreIDs: []int{0, 1, 2, 3}, BaseGHz: 0.729,
				EffFlopsPerCycle: 0.50, IrregPenalty: 0.35,
				LaunchOverheadSec: 12e-6, MemBWGBs: 14,
				IdleWatts: 0.3, BusyWatts: 2.2,
			},
			{
				Class: core.ClassGPU, Kind: core.KindGPU,
				Cores: 8, Lanes: 128, BaseGHz: 0.625,
				EffFlopsPerCycle: 0.35, ScalarFlopsPerCycle: 0.25,
				IrregPenalty: 1.2, DivergencePenalty: 1.6,
				LaunchOverheadSec: 25e-6, MemBWGBs: 19,
				OccupancyItemsPerLane: 4,
				IdleWatts:             0.4, BusyWatts: 3.2,
			},
		},
		DRAMBWGBs:  20,
		SharedLLC:  true,
		LLCPenalty: 0.70,
		Governor: &DVFSGovernor{
			NumClasses: 2,
			LoadedMult: map[core.PUClass]float64{
				core.ClassBig: 0.92,
				core.ClassGPU: 0.64, // tight 7W budget throttles the GPU under CPU load
			},
		},
		NoiseSigma:  0.025,
		UncoreWatts: 1.0,
	}
}
