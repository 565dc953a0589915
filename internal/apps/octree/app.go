package octree

import (
	"fmt"

	"bettertogether/internal/core"
)

// DefaultPoints is the frame size used by the evaluation, chosen so the
// simulated per-frame latencies land in the same millisecond regime as
// the paper's Table 3.
const DefaultPoints = 65536

// stage bodies — shared by the CPU and GPU kernels. The two backends of
// the paper run the same algorithms (OpenMP loops vs grid-stride CUDA/
// Vulkan kernels over identical phase structure); in this reproduction
// the engine-supplied ParallelFor is the only placement difference, and
// the performance difference comes from the SoC model's cost evaluation.

func stageMorton(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	pts, codes := t.Points.Data, t.Codes.Data
	par(t.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = EncodePoint(pts[3*i], pts[3*i+1], pts[3*i+2])
		}
	})
}

func stageSort(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	RadixSort(t.Codes.Data[:t.N], t.Scratch, par)
}

func stageUnique(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	t.NumUnique = Unique(t.Codes.Data[:t.N], t.Scratch.Ping, par)
}

func stageRadixTree(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	if t.NumUnique < 2 {
		return // degenerate frame; stage 7 builds the chain directly
	}
	t.Tree.Build(t.Codes.Data[:t.NumUnique], par)
}

func stageCountEdges(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	if t.NumUnique < 2 {
		return
	}
	CountEdges(t.Tree, t.Counts.Data[:t.Tree.NumNodes()], par)
}

func stagePrefixSum(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	if t.NumUnique < 2 {
		t.TotalNodes = MaxDepth + 1
		return
	}
	n := t.Tree.NumNodes()
	t.TotalNodes = ExclusiveScan(t.Counts.Data[:n], t.Offsets.Data[:n], par)
}

func stageBuildOctree(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*Task)
	if t.NumUnique < 2 {
		t.Result = BuildSingleCodeOctree(t.Codes.Data[0], t.Nodes[:t.TotalNodes])
		return
	}
	n := t.Tree.NumNodes()
	t.Result = BuildOctree(t.Tree, t.Codes.Data[:t.NumUnique],
		t.Counts.Data[:n], t.Offsets.Data[:n], t.Nodes[:t.TotalNodes], par)
}

// costs returns the per-stage cost specs for n-point frames. The
// divergence/irregularity assignments encode the paper's Sec. 4.1
// characterization: Morton encoding is a regular DOALL; Sort and Prefix
// Sum are parallelizable but nontrivial on GPUs; Build Radix Tree is
// irregular but embarrassingly parallel per node; Edge Counting and
// Build Octree involve pointer chasing and heavy control-flow divergence.
func costs(n int) []core.CostSpec {
	fn := float64(n)
	return []core.CostSpec{
		{FLOPs: 30 * fn, Bytes: 16 * fn, ParallelFraction: 0.999,
			Divergence: 0.02, Irregularity: 0.02, WorkItems: fn,
			Dispatches: 1}, // morton: regular DOALL
		{FLOPs: 24 * fn, Bytes: 40 * fn, ParallelFraction: 0.96,
			Divergence: 0.90, Irregularity: 0.90, WorkItems: fn,
			Dispatches: 9}, // sort: 3 LSD passes x histogram/scan/scatter
		{FLOPs: 6 * fn, Bytes: 16 * fn, ParallelFraction: 0.97,
			Divergence: 0.55, Irregularity: 0.45, WorkItems: fn,
			Dispatches: 4}, // unique: count/scan/gather/copy
		{FLOPs: 40 * fn, Bytes: 24 * fn, ParallelFraction: 0.995,
			Divergence: 0.35, Irregularity: 0.45, WorkItems: fn,
			Dispatches: 2}, // radix tree: per-node binary searches
		{FLOPs: 10 * fn, Bytes: 12 * fn, ParallelFraction: 0.995,
			Divergence: 0.95, Irregularity: 0.95, WorkItems: 2 * fn,
			Dispatches: 1}, // edge count: parent-pointer chasing
		{FLOPs: 4 * fn, Bytes: 12 * fn, ParallelFraction: 0.95,
			Divergence: 0.10, Irregularity: 0.05, WorkItems: 2 * fn,
			Dispatches: 3}, // prefix sum: blocked three-phase scan
		{FLOPs: 30 * fn, Bytes: 48 * fn, ParallelFraction: 0.98,
			Divergence: 0.97, Irregularity: 0.97, WorkItems: 2 * fn,
			Dispatches: 3}, // build octree: scattered pointer emission
	}
}

// StageNames are the pipeline stages in order, matching Sec. 4.1.
var StageNames = []string{
	"morton", "sort", "unique", "radix-tree", "edge-count", "prefix-sum", "build-octree",
}

// NewApplication builds the 7-stage octree pipeline over n-point frames
// from gen. Passing n <= 0 uses DefaultPoints; a nil gen uses UniformGen.
func NewApplication(n int, gen Generator) *core.Application {
	if n <= 0 {
		n = DefaultPoints
	}
	if gen == nil {
		gen = UniformGen{}
	}
	bodies := []core.KernelFunc{
		stageMorton, stageSort, stageUnique, stageRadixTree,
		stageCountEdges, stagePrefixSum, stageBuildOctree,
	}
	cs := costs(n)
	stages := make([]core.Stage, len(bodies))
	for i := range bodies {
		stages[i] = core.Stage{
			Name: StageNames[i],
			CPU:  bodies[i],
			GPU:  bodies[i],
			Cost: cs[i],
		}
	}
	app := &core.Application{
		Name:   fmt.Sprintf("octree-%s", gen.Name()),
		Stages: stages,
		NewTask: func() *core.TaskObject {
			t := NewTask(n, gen)
			return core.NewTaskObject(t, func(obj *core.TaskObject) { t.Regenerate(obj.Seq) })
		},
	}
	return app
}
