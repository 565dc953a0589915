package core

// TaskObject carries one streaming input (a frame, an image batch, a
// point cloud) through the whole pipeline (paper Sec. 3.4). It owns every
// buffer a task needs from first to last stage — persistent data,
// intermediate results, and pre-allocated scratchpads — so execution
// never allocates. TaskObjects are recycled: when the last chunk
// finishes, Reset prepares the object for the next input and it returns
// to the first queue.
type TaskObject struct {
	// Seq is the task's sequence number in the stream, set by the
	// pipeline when the object is (re)issued. Input generators use it as
	// the seed for deterministic synthetic inputs.
	Seq int

	// Payload holds the application-specific buffer container (for
	// example *alexnet.Task or *octree.Task).
	Payload any

	// resetFn restores the payload for reuse with a fresh Seq.
	resetFn func(*TaskObject)
}

// NewTaskObject wraps a payload with its reset hook.
func NewTaskObject(payload any, reset func(*TaskObject)) *TaskObject {
	return &TaskObject{Payload: payload, resetFn: reset}
}

// Reset recycles the object for sequence number seq.
func (t *TaskObject) Reset(seq int) {
	t.Seq = seq
	if t.resetFn != nil {
		t.resetFn(t)
	}
}

// ParallelFor distributes the iteration space [0, n) over the executing
// PU's lanes and blocks until every band completes. Kernels receive it
// from the engine: on a CPU class it fans out across that cluster's
// worker pool (the OpenMP `parallel for` of the paper's host kernels); on
// the GPU executor it strides the space across workgroups (the
// grid-stride loop of the paper's device kernels).
type ParallelFor func(n int, body func(lo, hi int))

// SerialFor is the degenerate ParallelFor used by tests and by reference
// single-threaded execution.
func SerialFor(n int, body func(lo, hi int)) {
	if n > 0 {
		body(0, n)
	}
}

// KernelFunc is one backend implementation of a stage: it computes the
// stage's output buffers from its input buffers inside the TaskObject.
// Implementations must confine all parallelism to the provided
// ParallelFor so the engine controls lane placement.
type KernelFunc func(task *TaskObject, par ParallelFor)
