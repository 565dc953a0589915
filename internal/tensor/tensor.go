// Package tensor is the dense linear-algebra substrate for the AlexNet
// workloads (paper Sec. 4.1). It provides float32 tensors and the CNN
// primitives the nine pipeline stages need: 2-D convolution, im2col,
// max-pooling, ReLU and fully-connected layers.
//
// Every compute primitive has a Range variant that operates on a
// half-open slice of its outermost parallel dimension. Kernel wrappers in
// internal/apps split those ranges across the worker pool of whichever PU
// the stage is scheduled on, mirroring how the paper's OpenMP and CUDA
// kernels split loop iterations across cores and thread blocks.
package tensor

import (
	"fmt"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor. Shape is immutable after
// construction; Data may be mutated freely. For CNN use the convention is
// CHW for single images and NCHW for batches.
type Tensor struct {
	shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, Data: make([]float32, n)}
}

// FromSlice wraps data with the given shape; the backing slice is shared.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, Data: data}
}

// Len returns the total element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index. Intended for tests and
// small reference paths, not hot loops.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d != tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// FillRandom fills the tensor with uniform values in [-scale, scale) from
// the given source, used for deterministic synthetic weights and inputs.
func (t *Tensor) FillRandom(rng *rand.Rand, scale float32) {
	for i := range t.Data {
		t.Data[i] = (rng.Float32()*2 - 1) * scale
	}
}
