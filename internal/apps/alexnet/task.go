package alexnet

import (
	"math/rand"

	"bettertogether/internal/core"
)

// Task is the AlexNet pipeline's TaskObject payload: one batch of images
// plus all activation and scratch buffers, pre-allocated (Sec. 3.4).
//
// Stages communicate through two ping-pong activation buffers: stage i
// writes Acts[i%2] and stage i+1 reads it. Since chunks execute a task's
// stages in pipeline order and the SPSC hand-off gives each task a single
// owner at a time, the buffers need no synchronization beyond that
// SPSC hand-off.
type Task struct {
	// B is the image batch per task (1 for dense, larger for sparse, as
	// in the paper).
	B int
	// Model is the shared immutable network.
	Model *Model

	// Input holds B × 3×32×32 images.
	Input *core.UsmBuffer[float32]
	// Acts are the ping-pong activation buffers, each B × ActSize.
	Acts [2]*core.UsmBuffer[float32]
	// Cols is the per-image im2col scratch (B × ColsSize), used by the
	// sparse convolutions; nil in dense tasks.
	Cols *core.UsmBuffer[float32]
	// Logits holds the classifier output, B × Classes.
	Logits *core.UsmBuffer[float32]
}

// NewTaskPayload allocates a task for batch b over model m, generating
// the seq-0 input. withCols allocates the sparse scratch.
func NewTaskPayload(m *Model, b int, withCols bool) *Task {
	t := &Task{
		B:      b,
		Model:  m,
		Input:  core.NewUsmBuffer[float32](b * InputC * InputH * InputW),
		Logits: core.NewUsmBuffer[float32](b * Classes),
	}
	t.Acts[0] = core.NewUsmBuffer[float32](b * m.ActSize())
	t.Acts[1] = core.NewUsmBuffer[float32](b * m.ActSize())
	if withCols {
		t.Cols = core.NewUsmBuffer[float32](b * m.ColsSize())
	}
	t.Regenerate(0)
	return t
}

// Regenerate fills the input batch deterministically for stream sequence
// seq — the synthetic stand-in for CIFAR-10 frames arriving over time.
func (t *Task) Regenerate(seq int) {
	rng := rand.New(rand.NewSource(int64(seq)*50021 + 11))
	for i := range t.Input.Data {
		t.Input.Data[i] = rng.Float32()
	}
}

// in returns the input buffer of stage idx: the task input for stage 0,
// otherwise the previous stage's ping-pong output.
func (t *Task) in(idx int) []float32 {
	if idx == 0 {
		return t.Input.Data
	}
	return t.Acts[(idx-1)%2].Data
}

// out returns the output buffer of stage idx.
func (t *Task) out(idx int) []float32 {
	return t.Acts[idx%2].Data
}
