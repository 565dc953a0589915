package pipeline

import (
	"fmt"
	"time"

	"bettertogether/internal/core"
)

// PanicError reports a kernel panic recovered by the Real engine,
// attributed to the pipeline location that dispatched it. The engine
// shuts the ring down and returns this in Result.Err instead of crashing
// the process; errors.As against *PanicError recovers the attribution.
type PanicError struct {
	// Chunk and PU locate the dispatcher that ran the kernel.
	Chunk int
	PU    core.PUClass
	// Stage is the stage name, or "" if the panic struck outside a stage
	// body (e.g. in a buffer fence).
	Stage string
	// Task is the stream sequence number being processed.
	Task int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	where := fmt.Sprintf("chunk %d (%s)", e.Chunk, e.PU)
	if e.Stage != "" {
		where += fmt.Sprintf(" stage %q", e.Stage)
	}
	return fmt.Sprintf("pipeline: %s task %d kernel panicked: %v", where, e.Task, e.Value)
}

// ShutdownTimeoutError reports that dispatcher goroutines failed to join
// within the join deadline (30 s) after the run ended or was canceled —
// typically a kernel stuck in an unbounded loop. The stalled goroutines
// are leaked (there is no way to preempt them); the error makes the leak
// loud instead of silent.
type ShutdownTimeoutError struct {
	// Timeout is the deadline that expired.
	Timeout time.Duration
	// Stalled is how many dispatcher goroutines had not exited.
	Stalled int
}

// Error implements error.
func (e *ShutdownTimeoutError) Error() string {
	return fmt.Sprintf("pipeline: %d dispatcher(s) failed to join within %v; goroutines leaked",
		e.Stalled, e.Timeout)
}
