package alexnet

import (
	"bettertogether/internal/core"
)

// DefaultSeed is the weight seed used by the evaluation.
const DefaultSeed = 1337

// DefaultSparseBatch is the image batch per task of the sparse variant.
// The paper batches 128 CIFAR images per task because the pruned network
// is cheap per image; we scale the batch down with the rest of the
// simulated workload sizes (see DESIGN.md) while keeping the structure —
// the sparse variant still amortizes per-task overhead over a batch.
const DefaultSparseBatch = 8

// StageNames are the nine pipeline stages in order.
var StageNames = []string{
	"conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "pool4", "fc",
}

// denseCosts returns per-stage cost specs for the dense variant at batch b.
func denseCosts(m *Model, b int) []core.CostSpec {
	fb := float64(b)
	var cs []core.CostSpec
	for i := 0; i < 4; i++ {
		spec := m.Convs[i].Spec
		in := float64(spec.InC * spec.InH * spec.InW)
		out := float64(spec.OutC * spec.OutH() * spec.OutW())
		wts := float64(spec.OutC * spec.InC * spec.Kernel * spec.Kernel)
		cs = append(cs, core.CostSpec{
			FLOPs:            fb * float64(spec.FLOPs()),
			Bytes:            fb*4*(in+out) + 4*wts,
			ParallelFraction: 0.9995,
			Divergence:       0.03,
			Irregularity:     0.03,
			WorkItems:        fb * out,
		})
		p := m.Pools[i]
		pin := float64(p.C * p.H * p.W)
		pout := float64(p.C * p.OutH() * p.OutW())
		cs = append(cs, core.CostSpec{
			FLOPs:            fb * pout * 4,
			Bytes:            fb * 4 * (pin + pout),
			ParallelFraction: 0.999,
			Divergence:       0.05,
			Irregularity:     0.02,
			WorkItems:        fb * pout,
		})
	}
	cs = append(cs, core.CostSpec{
		FLOPs:            fb * 2 * Classes * float64(m.FCIn),
		Bytes:            fb*4*float64(m.FCIn+Classes) + 4*float64(Classes*m.FCIn),
		ParallelFraction: 0.99,
		Divergence:       0.02,
		Irregularity:     0.05,
		WorkItems:        fb * Classes,
	})
	return cs
}

// sparseCosts returns per-stage cost specs for the CSR variant: the
// convolutions gain irregularity and divergence (gathered operands,
// uneven row lengths) and lose most of their arithmetic to pruning;
// pooling and the classifier stay dense.
func sparseCosts(m *Model, b int) []core.CostSpec {
	cs := denseCosts(m, b)
	fb := float64(b)
	for i := 0; i < 4; i++ {
		spec := m.Convs[i].Spec
		n := float64(spec.OutH() * spec.OutW())
		nnz := float64(m.Convs[i].CSR.NNZ())
		colLen := float64(spec.InC*spec.Kernel*spec.Kernel) * n
		in := float64(spec.InC * spec.InH * spec.InW)
		out := float64(spec.OutC) * n
		cs[2*i] = core.CostSpec{
			// 2 flops per multiply-add plus ~30% indexing overhead, plus
			// the im2col expansion pass.
			FLOPs:            fb * (2.6*nnz*n + colLen),
			Bytes:            fb*4*(in+colLen+out) + 8*nnz,
			ParallelFraction: 0.99,
			Divergence:       0.70,
			Irregularity:     0.72,
			WorkItems:        fb * out,
		}
	}
	return cs
}

// newApp assembles an Application from per-stage kernels and costs.
func newApp(name string, m *Model, b int, sparse bool, costs []core.CostSpec) *core.Application {
	stages := make([]core.Stage, 0, 9)
	si := 0
	for i := 0; i < 4; i++ {
		conv := denseConvStage(i, si)
		if sparse {
			conv = sparseConvStage(i, si)
		}
		stages = append(stages, core.Stage{
			Name: StageNames[si], CPU: conv, GPU: conv, Cost: costs[si],
		})
		si++
		pool := poolStage(i, si)
		stages = append(stages, core.Stage{
			Name: StageNames[si], CPU: pool, GPU: pool, Cost: costs[si],
		})
		si++
	}
	fc := fcStage(si)
	stages = append(stages, core.Stage{
		Name: StageNames[si], CPU: fc, GPU: fc, Cost: costs[si],
	})
	return &core.Application{
		Name:   name,
		Stages: stages,
		NewTask: func() *core.TaskObject {
			t := NewTaskPayload(m, b, sparse)
			return core.NewTaskObject(t, func(obj *core.TaskObject) { t.Regenerate(obj.Seq) })
		},
	}
}

// NewDense builds the dense 9-stage application: one image per task,
// exactly the paper's AlexNet-dense. batch <= 0 means 1.
func NewDense(seed int64, batch int) *core.Application {
	if batch <= 0 {
		batch = 1
	}
	m := NewModel(seed, 0)
	return newApp("alexnet-dense", m, batch, false, denseCosts(m, batch))
}

// NewSparse builds the pruned CSR variant at the given batch size
// (DefaultSparseBatch when <= 0).
func NewSparse(seed int64, batch int) *core.Application {
	if batch <= 0 {
		batch = DefaultSparseBatch
	}
	m := NewModel(seed, DefaultSparsity)
	return newApp("alexnet-sparse", m, batch, true, sparseCosts(m, batch))
}
