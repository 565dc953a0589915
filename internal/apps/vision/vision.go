// Package vision is a fourth evaluation-style workload beyond the
// paper's three: a classic edge camera pipeline over streaming frames —
// demosaic, denoise, edge detection, histogram equalization, and
// downscale. It exists to demonstrate that BetterTogether's abstractions
// extend past the paper's workloads: the stages span the same regularity
// spectrum (stencils are GPU-friendly, the histogram scatter and the
// serial CDF are not) and every kernel is a real implementation.
package vision

import (
	"math/rand"

	"bettertogether/internal/core"
)

// Default frame geometry (square RGGB Bayer mosaic).
const (
	DefaultWidth  = 256
	DefaultHeight = 256
	// Bins is the luminance histogram resolution.
	Bins = 256
)

// Task is the pipeline payload: one Bayer frame and every derived
// buffer, pre-allocated.
type Task struct {
	W, H int

	// Bayer is the RGGB mosaic, W×H.
	Bayer *core.UsmBuffer[float32]
	// RGB is the demosaiced image, 3×W×H planar.
	RGB *core.UsmBuffer[float32]
	// Denoised is the median-filtered image, 3×W×H.
	Denoised *core.UsmBuffer[float32]
	// Gray and Grad are the luminance and Sobel magnitude planes, W×H.
	Gray, Grad *core.UsmBuffer[float32]
	// Hist is the luminance histogram; LUT the equalization map.
	Hist *core.UsmBuffer[int32]
	LUT  *core.UsmBuffer[float32]
	// Eq is the equalized luminance plane, W×H.
	Eq *core.UsmBuffer[float32]
	// Out is the 2x-downscaled result, (W/2)×(H/2).
	Out *core.UsmBuffer[float32]
}

// NewTask allocates a task for w×h frames and fills the seq-0 input.
func NewTask(w, h int) *Task {
	t := &Task{
		W: w, H: h,
		Bayer:    core.NewUsmBuffer[float32](w * h),
		RGB:      core.NewUsmBuffer[float32](3 * w * h),
		Denoised: core.NewUsmBuffer[float32](3 * w * h),
		Gray:     core.NewUsmBuffer[float32](w * h),
		Grad:     core.NewUsmBuffer[float32](w * h),
		Hist:     core.NewUsmBuffer[int32](Bins),
		LUT:      core.NewUsmBuffer[float32](Bins),
		Eq:       core.NewUsmBuffer[float32](w * h),
		Out:      core.NewUsmBuffer[float32]((w / 2) * (h / 2)),
	}
	t.Regenerate(0)
	return t
}

// Regenerate synthesizes the frame for stream sequence seq: a smooth
// gradient scene with seeded sensor noise and occasional hot pixels —
// enough structure for every stage to do real work.
func (t *Task) Regenerate(seq int) {
	rng := rand.New(rand.NewSource(int64(seq)*60013 + 7))
	for y := 0; y < t.H; y++ {
		for x := 0; x < t.W; x++ {
			base := 0.25 + 0.5*float32(x+y)/float32(t.W+t.H)
			v := base + float32(rng.NormFloat64())*0.02
			if rng.Float64() < 0.001 {
				v = 1 // hot pixel for the median filter to kill
			}
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			t.Bayer.Data[y*t.W+x] = v
		}
	}
	for i := range t.Hist.Data {
		t.Hist.Data[i] = 0
	}
}

// clampIdx reflects an index into [0, n).
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Demosaic converts the RGGB mosaic to planar RGB rows [yLo, yHi) with
// bilinear interpolation of the missing samples.
func (t *Task) Demosaic(yLo, yHi int) {
	w, h := t.W, t.H
	in, out := t.Bayer.Data, t.RGB.Data
	sample := func(x, y int) float32 { return in[clampIdx(y, h)*w+clampIdx(x, w)] }
	// RGGB: (even,even)=R, (odd,even)=G, (even,odd)=G, (odd,odd)=B.
	for y := yLo; y < yHi; y++ {
		for x := 0; x < w; x++ {
			var r, g, b float32
			switch {
			case y%2 == 0 && x%2 == 0: // R site
				r = sample(x, y)
				g = (sample(x-1, y) + sample(x+1, y) + sample(x, y-1) + sample(x, y+1)) / 4
				b = (sample(x-1, y-1) + sample(x+1, y-1) + sample(x-1, y+1) + sample(x+1, y+1)) / 4
			case y%2 == 1 && x%2 == 1: // B site
				b = sample(x, y)
				g = (sample(x-1, y) + sample(x+1, y) + sample(x, y-1) + sample(x, y+1)) / 4
				r = (sample(x-1, y-1) + sample(x+1, y-1) + sample(x-1, y+1) + sample(x+1, y+1)) / 4
			case y%2 == 0: // G site on an R row
				g = sample(x, y)
				r = (sample(x-1, y) + sample(x+1, y)) / 2
				b = (sample(x, y-1) + sample(x, y+1)) / 2
			default: // G site on a B row
				g = sample(x, y)
				b = (sample(x-1, y) + sample(x+1, y)) / 2
				r = (sample(x, y-1) + sample(x, y+1)) / 2
			}
			idx := y*w + x
			out[idx] = r
			out[w*h+idx] = g
			out[2*w*h+idx] = b
		}
	}
}

// sort3 returns a, b, c in ascending order.
func sort3(a, b, c float32) (lo, mid, hi float32) {
	l, h := min(a, b), max(a, b)
	return min(l, c), max(l, min(h, c)), max(h, c)
}

// med3 returns the median of a, b, c.
func med3(a, b, c float32) float32 {
	return max(min(a, b), min(max(a, b), c))
}

// Denoise applies a 3×3 median filter to rows [yLo, yHi) of every
// channel, with edge pixels replicated past the border.
//
// Each window column is sorted once and slid along the row, and the
// median is med3 of the columns' largest low, median middle and
// smallest high: the same order statistic a full sort of the nine
// values selects. Only a window that holds both −0 and +0 may return
// either sign of zero; a NaN input has no defined median.
func (t *Task) Denoise(yLo, yHi int) {
	w, h := t.W, t.H
	for p := 0; p < 3; p++ {
		in := t.RGB.Data[p*w*h : (p+1)*w*h]
		out := t.Denoised.Data[p*w*h : (p+1)*w*h]
		for y := yLo; y < yHi; y++ {
			denoiseRow(out[y*w:][:w],
				in[clampIdx(y-1, h)*w:][:w], in[y*w:][:w], in[clampIdx(y+1, h)*w:][:w])
		}
	}
}

// denoiseRow writes the median filter of input row r1, between rows r0
// and r2, into out; all four slices have the same length.
func denoiseRow(out, r0, r1, r2 []float32) {
	w := len(out)
	r0, r1, r2 = r0[:w], r1[:w], r2[:w]
	// Sorted columns x-1, x and x+1 (a, b, c); the first column
	// replicates into the left border.
	la, ma, ha := sort3(r0[0], r1[0], r2[0])
	lb, mb, hb := la, ma, ha
	for x := 0; x < w-1; x++ {
		lc, mc, hc := sort3(r0[x+1], r1[x+1], r2[x+1])
		out[x] = med3(max(la, lb, lc), med3(ma, mb, mc), min(ha, hb, hc))
		la, ma, ha = lb, mb, hb
		lb, mb, hb = lc, mc, hc
	}
	// The last column replicates into the right border: c is b.
	out[w-1] = med3(max(la, lb), mb, min(ha, hb))
}

// Luminance fills rows [yLo, yHi) of Gray from the denoised image.
func (t *Task) Luminance(yLo, yHi int) {
	n := t.W * t.H
	r, g, b := t.Denoised.Data[:n], t.Denoised.Data[n:2*n], t.Denoised.Data[2*n:3*n]
	gray := t.Gray.Data
	for i := yLo * t.W; i < yHi*t.W; i++ {
		gray[i] = 0.299*r[i] + 0.587*g[i] + 0.114*b[i]
	}
}

// Gradient fills rows [yLo, yHi) of Grad with the squared Sobel
// gradient magnitude of Gray, with edge pixels replicated past the
// border. It reads Gray rows yLo-1 through yHi, so a banded caller
// fills Gray for the whole frame first.
func (t *Task) Gradient(yLo, yHi int) {
	w, h := t.W, t.H
	gray, grad := t.Gray.Data, t.Grad.Data
	for y := yLo; y < yHi; y++ {
		up := gray[clampIdx(y-1, h)*w:][:w]
		mid := gray[y*w:][:w]
		dn := gray[clampIdx(y+1, h)*w:][:w]
		out := grad[y*w:][:w]
		for x := 0; x < w; x++ {
			l, r := clampIdx(x-1, w), clampIdx(x+1, w)
			gx := up[r] + 2*mid[r] + dn[r] - up[l] - 2*mid[l] - dn[l]
			gy := dn[l] + 2*dn[x] + dn[r] - up[l] - 2*up[x] - up[r]
			out[x] = gx*gx + gy*gy
		}
	}
}

// histBands is the fixed band decomposition of the histogram stage.
const histBands = 16

// Histogram accumulates band-local luminance histograms for bands
// [bLo, bHi) into locals; Merge folds them.
func (t *Task) Histogram(locals *[histBands][Bins]int32, bLo, bHi int) {
	n := t.W * t.H
	gray := t.Gray.Data
	for b := bLo; b < bHi; b++ {
		lo, hi := b*n/histBands, (b+1)*n/histBands
		for _, v := range gray[lo:hi] {
			bin := int(v * Bins)
			if bin < 0 {
				bin = 0
			}
			if bin >= Bins {
				bin = Bins - 1
			}
			locals[b][bin]++
		}
	}
}

// MergeHistogram folds the band histograms into Hist and builds the
// equalization LUT from the cumulative distribution (serial by nature —
// the stage's Amdahl bottleneck).
func (t *Task) MergeHistogram(locals *[histBands][Bins]int32) {
	for i := range t.Hist.Data {
		t.Hist.Data[i] = 0
	}
	for b := 0; b < histBands; b++ {
		for i := 0; i < Bins; i++ {
			t.Hist.Data[i] += locals[b][i]
		}
	}
	total := int32(t.W * t.H)
	var cum int32
	for i := 0; i < Bins; i++ {
		cum += t.Hist.Data[i]
		t.LUT.Data[i] = float32(cum) / float32(total)
	}
}

// Equalize maps rows [yLo, yHi) of the luminance plane through the LUT.
func (t *Task) Equalize(yLo, yHi int) {
	w := t.W
	gray, lut, eq := t.Gray.Data, t.LUT.Data, t.Eq.Data
	for y := yLo; y < yHi; y++ {
		for x := 0; x < w; x++ {
			v := gray[y*w+x]
			bin := int(v * Bins)
			if bin < 0 {
				bin = 0
			}
			if bin >= Bins {
				bin = Bins - 1
			}
			eq[y*w+x] = lut[bin]
		}
	}
}

// Downscale box-filters the equalized plane 2× into Out for output rows
// [yLo, yHi) of the half-resolution image.
func (t *Task) Downscale(yLo, yHi int) {
	w := t.W
	ow := w / 2
	in, out := t.Eq.Data, t.Out.Data
	for oy := yLo; oy < yHi; oy++ {
		for ox := 0; ox < ow; ox++ {
			x, y := 2*ox, 2*oy
			out[oy*ow+ox] = (in[y*w+x] + in[y*w+x+1] + in[(y+1)*w+x] + in[(y+1)*w+x+1]) / 4
		}
	}
}
