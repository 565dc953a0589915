package core

// UsmBuffer is a unified shared-memory buffer (paper Sec. 3.1): one
// allocation visible to host and device kernels with zero-copy access.
// On the paper's UMA SoCs data never moves, and the SPSC hand-off gives
// each TaskObject one owner at a time, so the buffer is just its data.
type UsmBuffer[T any] struct {
	Data []T
}

// NewUsmBuffer allocates a unified buffer of n elements.
func NewUsmBuffer[T any](n int) *UsmBuffer[T] {
	return &UsmBuffer[T]{Data: make([]T, n)}
}
