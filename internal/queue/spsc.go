// Package queue implements the lock-free single-producer single-consumer
// (SPSC) ring buffers that BT-Implementer uses to pass TaskObject pointers
// between pipeline chunks (paper Sec. 3.4, "Dispatcher Threads").
//
// Each edge in the pipeline has exactly one producing dispatcher and one
// consuming dispatcher, so the queue only has to be safe for that access
// pattern; this admits a wait-free ring with two atomic cursors and no
// locks, matching the C++ implementation the paper describes.
package queue

import "sync/atomic"

// cacheLinePad separates the producer- and consumer-owned cursors so they
// do not false-share a cache line under concurrent access.
type cacheLinePad struct{ _ [64]byte }

// SPSC is a bounded lock-free single-producer single-consumer queue.
//
// Exactly one goroutine may call Push/TryPush and exactly one (possibly
// different) goroutine may call Pop/TryPop. The zero value is not usable;
// construct with NewSPSC.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    cacheLinePad
	head atomic.Uint64 // next slot to pop (owned by consumer)
	_    cacheLinePad
	tail atomic.Uint64 // next slot to push (owned by producer)
	_    cacheLinePad

	closed atomic.Bool
}

// NewSPSC returns an SPSC queue with capacity rounded up to the next power
// of two (minimum 2). A power-of-two size lets cursor arithmetic use a
// mask instead of modulo.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the queue capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// Len returns the number of buffered elements. It is a snapshot and only
// exact when called from the producer or consumer goroutine.
func (q *SPSC[T]) Len() int {
	return int(q.tail.Load() - q.head.Load())
}

// TryPush appends v and reports whether there was room.
// Must only be called from the producer goroutine.
func (q *SPSC[T]) TryPush(v T) bool {
	tail := q.tail.Load()
	if tail-q.head.Load() == uint64(len(q.buf)) {
		return false // full
	}
	q.buf[tail&q.mask] = v
	q.tail.Store(tail + 1) // release: publishes the slot write
	return true
}

// TryPop removes and returns the oldest element, reporting whether one was
// available. Must only be called from the consumer goroutine.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	head := q.head.Load()
	if head == q.tail.Load() {
		return zero, false // empty
	}
	v := q.buf[head&q.mask]
	q.buf[head&q.mask] = zero // drop reference for GC
	q.head.Store(head + 1)
	return v, true
}

// Close marks the queue closed. Pending elements remain poppable; Push
// after Close reports false, and Pop returns ok=false once drained.
func (q *SPSC[T]) Close() { q.closed.Store(true) }

// Push spins (with backoff via Gosched) until v is enqueued or the queue
// is closed; it reports whether the element was enqueued. This is the
// blocking form used by dispatcher threads, which "yield until" progress
// is possible rather than burning a core (paper Sec. 3.4).
func (q *SPSC[T]) Push(v T) bool {
	for {
		if q.closed.Load() {
			return false
		}
		if q.TryPush(v) {
			return true
		}
		yield()
	}
}

// Pop spins until an element is available or the queue is closed and
// drained. It reports ok=false only on closed-and-empty.
func (q *SPSC[T]) Pop() (T, bool) {
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Re-check: a final element may have been pushed before Close.
			if v, ok := q.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		yield()
	}
}
