package core

import (
	"fmt"
	"sync/atomic"
)

// CoherenceState tracks which side last wrote a unified buffer. On the
// paper's UMA SoCs data never moves, but visibility still must be managed
// (cudaStreamAttachMemAsync prefetch hints, vkCmdPipelineBarrier fences).
// We model that bookkeeping so the dispatcher's "synchronize all memory
// buffers" step (Sec. 3.4) is a real, testable operation.
type CoherenceState int32

const (
	// Shared: both sides have a coherent view.
	Shared CoherenceState = iota
	// HostDirty: the CPU wrote last; a device acquire needs a fence.
	HostDirty
	// DeviceDirty: the GPU wrote last; a host acquire needs a fence.
	DeviceDirty
)

// String names the coherence state.
func (s CoherenceState) String() string {
	switch s {
	case Shared:
		return "shared"
	case HostDirty:
		return "host-dirty"
	case DeviceDirty:
		return "device-dirty"
	default:
		return fmt.Sprintf("coherence(%d)", int32(s))
	}
}

// UsmBuffer is a unified shared-memory buffer (paper Sec. 3.1): one
// allocation visible to host and device kernels with zero-copy access.
// The element data lives in Data; Acquire/Release model the coherence
// protocol and count fence operations, so the package's tests can
// verify that chunks synchronize exactly the buffers they touch.
//
// UsmBuffer is not safe for concurrent Acquire from multiple goroutines;
// the pipeline guarantees one chunk owns a TaskObject at a time, which is
// the same discipline the paper's SPSC hand-off enforces.
type UsmBuffer[T any] struct {
	Data  []T
	state atomic.Int32
	syncs atomic.Int64
}

// NewUsmBuffer allocates a unified buffer of n elements in Shared state.
func NewUsmBuffer[T any](n int) *UsmBuffer[T] {
	return &UsmBuffer[T]{Data: make([]T, n)}
}

// Len returns the element count.
func (b *UsmBuffer[T]) Len() int { return len(b.Data) }

// Acquire makes the buffer coherent for the given backend, counting a
// fence if the opposite side wrote last. It returns the backing slice for
// kernel use. This is step 2 of the dispatcher loop in Sec. 3.4.
func (b *UsmBuffer[T]) Acquire(be Backend) []T {
	st := CoherenceState(b.state.Load())
	switch {
	case be == BackendCPU && st == DeviceDirty,
		be == BackendGPU && st == HostDirty:
		b.syncs.Add(1)
		b.state.Store(int32(Shared))
	}
	return b.Data
}

// Release marks the buffer written by the given backend, so the next
// Acquire from the other side pays a fence.
func (b *UsmBuffer[T]) Release(be Backend) {
	if be == BackendGPU {
		b.state.Store(int32(DeviceDirty))
	} else {
		b.state.Store(int32(HostDirty))
	}
}

// ResetCoherence returns the buffer to Shared without counting a fence,
// used when a TaskObject is recycled for a fresh input.
func (b *UsmBuffer[T]) ResetCoherence() { b.state.Store(int32(Shared)) }
