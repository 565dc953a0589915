package vision

import (
	"fmt"

	"bettertogether/internal/core"
)

// StageNames are the six pipeline stages in order.
var StageNames = []string{
	"demosaic", "denoise", "sobel", "histogram", "equalize", "downscale",
}

// payload is the TaskObject payload: the Task plus the band-local
// histograms that carry the histogram stage between its two phases,
// kept beside the Task so the stage stays allocation-free.
type payload struct {
	*Task
	locals [histBands][Bins]int32
}

// Unwrap returns the Task inside a pipeline payload, so callers outside
// the package (tests, result collectors) can inspect frame outputs
// without depending on the unexported scratch wrapper.
func Unwrap(p any) *Task {
	if t, ok := p.(*Task); ok {
		return t
	}
	return p.(*payload).Task
}

func stageDemosaic(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	par(t.H, func(lo, hi int) { t.Demosaic(lo, hi) })
}

func stageDenoise(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	par(t.H, func(lo, hi int) { t.Denoise(lo, hi) })
}

func stageSobel(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	// Two sweeps, so no band reads a halo row of Gray while another
	// band is writing it.
	par(t.H, func(lo, hi int) { t.Luminance(lo, hi) })
	par(t.H, func(lo, hi int) { t.Gradient(lo, hi) })
}

func stageHistogram(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	for b := range t.locals {
		for i := range t.locals[b] {
			t.locals[b][i] = 0
		}
	}
	par(histBands, func(lo, hi int) { t.Histogram(&t.locals, lo, hi) })
	t.MergeHistogram(&t.locals)
}

func stageEqualize(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	par(t.H, func(lo, hi int) { t.Equalize(lo, hi) })
}

func stageDownscale(to *core.TaskObject, par core.ParallelFor) {
	t := to.Payload.(*payload)
	par(t.H/2, func(lo, hi int) { t.Downscale(lo, hi) })
}

// costs derives per-stage cost specs from the frame geometry.
func costs(w, h int) []core.CostSpec {
	px := float64(w * h)
	return []core.CostSpec{
		{FLOPs: 14 * px, Bytes: 16 * px, ParallelFraction: 0.999,
			Divergence: 0.15, Irregularity: 0.08, WorkItems: px, Dispatches: 1}, // demosaic
		{FLOPs: 70 * px, Bytes: 28 * px, ParallelFraction: 0.999,
			Divergence: 0.30, Irregularity: 0.10, WorkItems: 3 * px, Dispatches: 1}, // denoise (median net)
		{FLOPs: 45 * px, Bytes: 20 * px, ParallelFraction: 0.999,
			Divergence: 0.05, Irregularity: 0.05, WorkItems: px, Dispatches: 1}, // sobel
		{FLOPs: 4 * px, Bytes: 8 * px, ParallelFraction: 0.92,
			Divergence: 0.65, Irregularity: 0.60, WorkItems: px, Dispatches: 2}, // histogram (+serial CDF)
		{FLOPs: 3 * px, Bytes: 9 * px, ParallelFraction: 0.999,
			Divergence: 0.20, Irregularity: 0.35, WorkItems: px, Dispatches: 1}, // equalize (LUT gather)
		{FLOPs: 2 * px, Bytes: 6 * px, ParallelFraction: 0.999,
			Divergence: 0.02, Irregularity: 0.02, WorkItems: px / 4, Dispatches: 1}, // downscale
	}
}

// NewApplication builds the 6-stage vision pipeline over w×h frames
// (DefaultWidth/DefaultHeight when <= 0). Width and height must be even.
func NewApplication(w, h int) (*core.Application, error) {
	if w <= 0 {
		w = DefaultWidth
	}
	if h <= 0 {
		h = DefaultHeight
	}
	if w%2 != 0 || h%2 != 0 {
		return nil, fmt.Errorf("vision: frame dims %dx%d must be even (Bayer mosaic)", w, h)
	}
	bodies := []core.KernelFunc{
		stageDemosaic, stageDenoise, stageSobel,
		stageHistogram, stageEqualize, stageDownscale,
	}
	cs := costs(w, h)
	stages := make([]core.Stage, len(bodies))
	for i := range bodies {
		stages[i] = core.Stage{Name: StageNames[i], CPU: bodies[i], GPU: bodies[i], Cost: cs[i]}
	}
	return &core.Application{
		Name:   "vision",
		Stages: stages,
		NewTask: func() *core.TaskObject {
			p := &payload{Task: NewTask(w, h)}
			return core.NewTaskObject(p, func(obj *core.TaskObject) { p.Regenerate(obj.Seq) })
		},
	}, nil
}
