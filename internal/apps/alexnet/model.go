// Package alexnet implements the paper's first two evaluation workloads
// (Sec. 4.1): image classification with a CIFAR-10-scale AlexNet, in a
// dense variant (regular, dominated by dense convolution) and a sparse
// variant whose convolution weights are structurally pruned to CSR
// (irregular memory access, the regime where big out-of-order cores catch
// up with GPUs).
//
// The network has nine pipeline stages — four convolutions each followed
// by max pooling, then a fully-connected classifier — matching the
// paper's stage count. Each DNN layer is one pipeline stage, as in the
// paper's motivating example (Sec. 1).
package alexnet

import (
	"math/rand"

	"bettertogether/internal/sparse"
	"bettertogether/internal/tensor"
)

// Input geometry: CIFAR-10 images.
const (
	InputC = 3
	InputH = 32
	InputW = 32
	// Classes is the classifier output width.
	Classes = 10
)

// DefaultSparsity is the structured-pruning level of the sparse variant,
// matching the heavy pruning Condensa applies in the paper.
const DefaultSparsity = 0.8

// ConvLayer is one convolution stage's parameters: the weights, dense in
// the dense model and pruned to CSR in the sparse one, and the bias.
type ConvLayer struct {
	Spec tensor.ConvSpec
	// W holds the dense weights [OutC × InC × K × K]; nil in the sparse
	// model, which never materializes them.
	W    *tensor.Tensor
	Bias []float32
	// CSR holds the pruned weights with rows [OutC] × cols [InC·K·K], the
	// layout that turns convolution into CSR × im2col; nil in the dense
	// model.
	CSR *sparse.CSR
}

// Model holds the network parameters. A Model is immutable after
// construction and shared by every TaskObject of an application (weights
// are persistent data in TaskObject terms; sharing them is the UMA
// zero-copy story of Sec. 3.1).
type Model struct {
	Convs [4]ConvLayer
	// Pools[i] pools the output of Convs[i].
	Pools [4]tensor.PoolSpec
	// FCW is the classifier weight matrix [Classes × FCIn], FCB its bias.
	FCW  []float32
	FCB  []float32
	FCIn int
	// Sparsity is 0 for the dense model.
	Sparsity float64
}

// channelProgression is the AlexNet-for-CIFAR channel plan.
var channelProgression = [4]int{64, 192, 384, 256}

// NewModel builds a model with deterministic seeded weights. sparsity 0
// gives the dense variant; a positive sparsity prunes each conv layer
// per-row by magnitude straight into CSR weights, from the same draws the
// dense variant keeps.
func NewModel(seed int64, sparsity float64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Sparsity: sparsity}
	c, h, w := InputC, InputH, InputW
	for i := 0; i < 4; i++ {
		spec := tensor.ConvSpec{
			InC: c, InH: h, InW: w,
			OutC: channelProgression[i], Kernel: 3, Stride: 1, Pad: 1,
		}
		layer := ConvLayer{Spec: spec}
		if sparsity > 0 {
			// The same draws, in the same row-major order, as the dense
			// FillRandom, pruned row by row as they are drawn.
			cols := spec.InC * spec.Kernel * spec.Kernel
			layer.CSR = sparse.PruneCSR(spec.OutC, cols, sparsity, func(row []float32) {
				for j := range row {
					row[j] = (rng.Float32()*2 - 1) * 0.25
				}
			})
		} else {
			layer.W = tensor.New(spec.OutC, spec.InC, spec.Kernel, spec.Kernel)
			layer.W.FillRandom(rng, 0.25)
		}
		layer.Bias = make([]float32, spec.OutC)
		for j := range layer.Bias {
			layer.Bias[j] = (rng.Float32()*2 - 1) * 0.05
		}
		m.Convs[i] = layer
		// Pool halves the spatial dims.
		m.Pools[i] = tensor.PoolSpec{C: spec.OutC, H: h, W: w, Kernel: 2, Stride: 2}
		c, h, w = spec.OutC, m.Pools[i].OutH(), m.Pools[i].OutW()
	}
	m.FCIn = c * h * w
	m.FCW = make([]float32, Classes*m.FCIn)
	for i := range m.FCW {
		m.FCW[i] = (rng.Float32()*2 - 1) * 0.1
	}
	m.FCB = make([]float32, Classes)
	for i := range m.FCB {
		m.FCB[i] = (rng.Float32()*2 - 1) * 0.05
	}
	return m
}

// ActSize returns the largest activation volume (elements per image),
// which sizes the ping-pong activation buffers.
func (m *Model) ActSize() int {
	max := InputC * InputH * InputW
	for i := range m.Convs {
		s := m.Convs[i].Spec
		if v := s.OutC * s.OutH() * s.OutW(); v > max {
			max = v
		}
	}
	return max
}

// ColsSize returns the largest im2col matrix (elements per image) across
// conv layers, sizing the sparse variant's scratch.
func (m *Model) ColsSize() int {
	max := 0
	for i := range m.Convs {
		s := m.Convs[i].Spec
		if v := s.InC * s.Kernel * s.Kernel * s.OutH() * s.OutW(); v > max {
			max = v
		}
	}
	return max
}
