package vision

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"bettertogether/internal/core"
)

func concPar(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// median9 returns the median of 9 values via Paeth's 19-exchange
// sorting network; it is the oracle the column-sorted Denoise is
// checked against.
func median9(v [9]float32) float32 {
	swap := func(a, b int) {
		if v[a] > v[b] {
			v[a], v[b] = v[b], v[a]
		}
	}
	swap(1, 2)
	swap(4, 5)
	swap(7, 8)
	swap(0, 1)
	swap(3, 4)
	swap(6, 7)
	swap(1, 2)
	swap(4, 5)
	swap(7, 8)
	swap(0, 3)
	swap(5, 8)
	swap(4, 7)
	swap(3, 6)
	swap(1, 4)
	swap(2, 5)
	swap(4, 7)
	swap(4, 2)
	swap(6, 4)
	swap(4, 2)
	return v[4]
}

// refDenoise is the tap-by-tap 3×3 median filter: each window read
// through clamped coordinates and reduced by median9.
func refDenoise(t *Task, yLo, yHi int) {
	w, h := t.W, t.H
	in, out := t.RGB.Data, t.Denoised.Data
	for p := 0; p < 3; p++ {
		for y := yLo; y < yHi; y++ {
			for x := 0; x < w; x++ {
				var win [9]float32
				k := 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						win[k] = in[p*w*h+clampIdx(y+dy, h)*w+clampIdx(x+dx, w)]
						k++
					}
				}
				out[p*w*h+y*w+x] = median9(win)
			}
		}
	}
}

// Sobel runs both passes of the sobel stage over rows [yLo, yHi);
// Sobel(0, H) fills Gray and Grad for the whole frame.
func (t *Task) Sobel(yLo, yHi int) {
	t.Luminance(yLo, yHi)
	t.Gradient(yLo, yHi)
}

func TestMedian9(t *testing.T) {
	f := func(raw [9]float32) bool {
		got := median9(raw)
		s := raw[:]
		cp := append([]float32(nil), s...)
		sort.Slice(cp, func(a, b int) bool { return cp[a] < cp[b] })
		return got == cp[4]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDemosaicConstantField(t *testing.T) {
	// A constant Bayer frame must demosaic to the same constant in all
	// three planes.
	task := NewTask(16, 16)
	for i := range task.Bayer.Data {
		task.Bayer.Data[i] = 0.5
	}
	task.Demosaic(0, 16)
	for p := 0; p < 3; p++ {
		for i := 0; i < 16*16; i++ {
			if v := task.RGB.Data[p*256+i]; math.Abs(float64(v-0.5)) > 1e-6 {
				t.Fatalf("plane %d pixel %d = %v", p, i, v)
			}
		}
	}
}

func TestDenoiseKillsHotPixel(t *testing.T) {
	task := NewTask(16, 16)
	for i := range task.RGB.Data {
		task.RGB.Data[i] = 0.3
	}
	task.RGB.Data[8*16+8] = 1.0 // impulse in the R plane
	task.Denoise(0, 16)
	if v := task.Denoised.Data[8*16+8]; math.Abs(float64(v-0.3)) > 1e-6 {
		t.Errorf("median filter left the impulse: %v", v)
	}
}

func TestSobelFlatAndEdge(t *testing.T) {
	task := NewTask(16, 16)
	// Flat image: zero gradient everywhere.
	for i := range task.Denoised.Data {
		task.Denoised.Data[i] = 0.4
	}
	task.Sobel(0, 16)
	for i, g := range task.Grad.Data {
		if math.Abs(float64(g)) > 1e-10 {
			t.Fatalf("flat image has gradient %v at %d", g, i)
		}
	}
	// Vertical step edge: strong response on the boundary column, zero
	// far from it.
	for p := 0; p < 3; p++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				v := float32(0)
				if x >= 8 {
					v = 1
				}
				task.Denoised.Data[p*256+y*16+x] = v
			}
		}
	}
	task.Sobel(0, 16)
	if task.Grad.Data[5*16+8] <= 0 {
		t.Error("no response at the edge")
	}
	if task.Grad.Data[5*16+2] != 0 {
		t.Error("response far from the edge")
	}
}

func TestHistogramSumsToPixels(t *testing.T) {
	task := NewTask(32, 32)
	task.Sobel(0, 32) // fill Gray (from whatever Denoised holds: zeros)
	var locals [histBands][Bins]int32
	concPar(histBands, func(lo, hi int) { task.Histogram(&locals, lo, hi) })
	task.MergeHistogram(&locals)
	var sum int32
	for _, c := range task.Hist.Data {
		sum += c
	}
	if sum != 32*32 {
		t.Errorf("histogram sums to %d, want %d", sum, 32*32)
	}
	// LUT must be monotone non-decreasing and end at 1.
	for i := 1; i < Bins; i++ {
		if task.LUT.Data[i] < task.LUT.Data[i-1] {
			t.Fatal("LUT not monotone")
		}
	}
	if math.Abs(float64(task.LUT.Data[Bins-1]-1)) > 1e-6 {
		t.Errorf("LUT tail = %v, want 1", task.LUT.Data[Bins-1])
	}
}

func TestEqualizeUniformOutputOnTwoLevelImage(t *testing.T) {
	// Equalizing a 50/50 two-level image maps the levels to ~0.5 and 1.
	task := NewTask(16, 16)
	for i := range task.Gray.Data {
		if i < 128 {
			task.Gray.Data[i] = 0.2
		} else {
			task.Gray.Data[i] = 0.8
		}
	}
	var locals [histBands][Bins]int32
	task.Histogram(&locals, 0, histBands)
	task.MergeHistogram(&locals)
	task.Equalize(0, 16)
	if math.Abs(float64(task.Eq.Data[0]-0.5)) > 1e-6 {
		t.Errorf("low level -> %v, want 0.5", task.Eq.Data[0])
	}
	if math.Abs(float64(task.Eq.Data[200]-1.0)) > 1e-6 {
		t.Errorf("high level -> %v, want 1.0", task.Eq.Data[200])
	}
}

func TestDownscalePreservesMean(t *testing.T) {
	task := NewTask(16, 16)
	var sum float64
	for i := range task.Eq.Data {
		v := float32(i%7) / 7
		task.Eq.Data[i] = v
		sum += float64(v)
	}
	task.Downscale(0, 8)
	var osum float64
	for _, v := range task.Out.Data {
		osum += float64(v)
	}
	if math.Abs(osum*4-sum) > 1e-3 {
		t.Errorf("box filter lost energy: %v vs %v", osum*4, sum)
	}
}

func TestApplicationEndToEndDeterministic(t *testing.T) {
	app, err := NewApplication(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(app.Stages) != 6 {
		t.Fatalf("stages = %d", len(app.Stages))
	}
	run := func(par core.ParallelFor, gpu bool) []float32 {
		to := app.NewTask()
		for _, s := range app.Stages {
			if gpu {
				s.GPU(to, par)
			} else {
				s.CPU(to, par)
			}
		}
		return append([]float32(nil), to.Payload.(*payload).Out.Data...)
	}
	a := run(core.SerialFor, false)
	b := run(concPar, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output differs at %d across backends/parallelism", i)
		}
	}
	// The pipeline must produce a non-trivial image.
	var nonzero int
	for _, v := range a {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < len(a)/2 {
		t.Error("output mostly empty")
	}
}

func TestApplicationRecycling(t *testing.T) {
	app, _ := NewApplication(32, 32)
	to := app.NewTask()
	run := func() []float32 {
		for _, s := range app.Stages {
			s.CPU(to, core.SerialFor)
		}
		return append([]float32(nil), to.Payload.(*payload).Out.Data...)
	}
	first := run()
	to.Reset(5)
	second := run()
	diff := false
	for i := range first {
		if first[i] != second[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("new stream input produced identical output")
	}
	to.Reset(0)
	again := run()
	for i := range first {
		if first[i] != again[i] {
			t.Fatal("recycled task not deterministic")
		}
	}
}

func TestOddDimensionsRejected(t *testing.T) {
	if _, err := NewApplication(15, 16); err == nil {
		t.Error("odd width accepted")
	}
	if _, err := NewApplication(16, 15); err == nil {
		t.Error("odd height accepted")
	}
}

func TestCostsValid(t *testing.T) {
	for i, c := range costs(64, 64) {
		if err := c.Validate(); err != nil {
			t.Errorf("stage %d: %v", i, err)
		}
	}
}

// FuzzDenoise checks the column-sorted Denoise against refDenoise on
// frames from 2×2 to 33×33, run as two bands split at row k. Samples
// come from a 64-level palette over [-8, 8) with both signs of zero, so
// windows hold many duplicates. Outputs must be equal by value and by
// bits, except that a window holding both −0 and +0 may return either
// zero. NaN is left out: a NaN input has no defined median.
func FuzzDenoise(f *testing.F) {
	f.Fuzz(func(t *testing.T, wB, hB, kB uint8, data []byte) {
		w, h := 2+int(wB%32), 2+int(hB%32)
		k := int(kB) % (h + 1)
		got, want := NewTask(w, h), NewTask(w, h)
		for i := range got.RGB.Data {
			var v float32
			if len(data) > 0 {
				v = fuzzSample(data[i%len(data)])
			}
			got.RGB.Data[i], want.RGB.Data[i] = v, v
		}
		got.Denoise(0, k)
		got.Denoise(k, h)
		refDenoise(want, 0, h)
		for i, g := range got.Denoised.Data {
			r := want.Denoised.Data[i]
			if g != r {
				t.Fatalf("%dx%d split %d: pixel %d = %v, want %v", w, h, k, i, g, r)
			}
			if math.Float32bits(g) != math.Float32bits(r) && !mixedZeros(want, i) {
				t.Fatalf("%dx%d split %d: pixel %d bits %08x, want %08x", w, h, k, i,
					math.Float32bits(g), math.Float32bits(r))
			}
		}
	})
}

// fuzzSample maps a fuzz byte to a sample: 0xff is −0, and every other
// byte to one of 64 quarter steps in [-8, 8), 0 through 3 to +0.
func fuzzSample(b byte) float32 {
	if b == 0xff {
		return float32(math.Copysign(0, -1))
	}
	return float32(int8(b)>>2) / 4
}

// mixedZeros reports whether the 3×3 window of planar pixel i in t.RGB
// holds both −0 and +0.
func mixedZeros(t *Task, i int) bool {
	w, h := t.W, t.H
	p, y, x := i/(w*h), i%(w*h)/w, i%w
	var neg, pos bool
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			v := t.RGB.Data[p*w*h+clampIdx(y+dy, h)*w+clampIdx(x+dx, w)]
			if v == 0 {
				neg = neg || math.Signbit(float64(v))
				pos = pos || !math.Signbit(float64(v))
			}
		}
	}
	return neg && pos
}
