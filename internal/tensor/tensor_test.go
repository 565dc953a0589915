package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewAndIndexing(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Len() != 24 || !slices.Equal(tt.shape, []int{2, 3, 4}) {
		t.Fatalf("bad metadata: len=%d shape=%v", tt.Len(), tt.shape)
	}
	tt.Set(7, 1, 2, 3)
	if tt.At(1, 2, 3) != 7 {
		t.Fatal("Set/At round trip failed")
	}
	if tt.Data[1*12+2*4+3] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceSharesBacking(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	tt := FromSlice(data, 2, 2)
	data[0] = 9
	if tt.At(0, 0) != 9 {
		t.Error("FromSlice must share the backing slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Set(5, 0, 0)
	b := a.Clone()
	b.Set(9, 0, 0)
	if a.At(0, 0) != 5 {
		t.Error("Clone is not independent")
	}
	if !slices.Equal(a.shape, b.shape) {
		t.Error("Clone changed shape")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-bounds index")
		}
	}()
	New(2, 2).At(0, 2)
}

// referenceConv is an independently written, index-based convolution used
// to cross-check both production implementations.
func referenceConv(spec ConvSpec, src, w *Tensor, b []float32) *Tensor {
	out := New(spec.OutC, spec.OutH(), spec.OutW())
	for oc := 0; oc < spec.OutC; oc++ {
		for oy := 0; oy < spec.OutH(); oy++ {
			for ox := 0; ox < spec.OutW(); ox++ {
				var acc float32
				if b != nil {
					acc = b[oc]
				}
				for ic := 0; ic < spec.InC; ic++ {
					for ky := 0; ky < spec.Kernel; ky++ {
						for kx := 0; kx < spec.Kernel; kx++ {
							iy := oy*spec.Stride - spec.Pad + ky
							ix := ox*spec.Stride - spec.Pad + kx
							if iy < 0 || iy >= spec.InH || ix < 0 || ix >= spec.InW {
								continue
							}
							acc += src.At(ic, iy, ix) * w.At(oc, ic, ky, kx)
						}
					}
				}
				out.Set(acc, oc, oy, ox)
			}
		}
	}
	return out
}

func randomConvCase(rng *rand.Rand) (ConvSpec, *Tensor, *Tensor, []float32) {
	spec := ConvSpec{
		InC:    1 + rng.Intn(4),
		InH:    4 + rng.Intn(8),
		InW:    4 + rng.Intn(8),
		OutC:   1 + rng.Intn(5),
		Kernel: 1 + rng.Intn(3),
		Stride: 1 + rng.Intn(2),
		Pad:    rng.Intn(2),
	}
	src := New(spec.InC, spec.InH, spec.InW)
	src.FillRandom(rng, 1)
	w := New(spec.OutC, spec.InC, spec.Kernel, spec.Kernel)
	w.FillRandom(rng, 1)
	b := make([]float32, spec.OutC)
	for i := range b {
		b[i] = rng.Float32()
	}
	return spec, src, w, b
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func TestConv2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		spec, src, w, b := randomConvCase(rng)
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: invalid spec: %v", trial, err)
		}
		got := New(spec.OutC, spec.OutH(), spec.OutW())
		Conv2D(spec, got, src, w, b)
		want := referenceConv(spec, src, w, b)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("trial %d: Conv2D diverges from reference (spec %+v)", trial, spec)
		}
	}
}

func TestConv2DIm2ColMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		spec, src, w, b := randomConvCase(rng)
		direct := New(spec.OutC, spec.OutH(), spec.OutW())
		Conv2D(spec, direct, src, w, b)
		// W[OC, InC*K*K] × cols[InC*K*K, OH*OW], plus the bias.
		kk, n := spec.InC*spec.Kernel*spec.Kernel, spec.OutH()*spec.OutW()
		cols := New(kk, n)
		Im2Col(spec, src, cols)
		gemmed := New(spec.OutC, spec.OutH(), spec.OutW())
		for oc := 0; oc < spec.OutC; oc++ {
			for j := 0; j < n; j++ {
				acc := b[oc]
				for p := 0; p < kk; p++ {
					acc += w.Data[oc*kk+p] * cols.Data[p*n+j]
				}
				gemmed.Data[oc*n+j] = acc
			}
		}
		if !tensorsClose(direct, gemmed, 1e-3) {
			t.Fatalf("trial %d: im2col conv diverges from direct (spec %+v)", trial, spec)
		}
	}
}

func TestConv2DRangePartition(t *testing.T) {
	// Computing channel bands separately must equal a single full pass —
	// the invariant the worker-pool split relies on.
	rng := rand.New(rand.NewSource(3))
	spec, src, w, b := randomConvCase(rng)
	spec.OutC = 6
	w = New(spec.OutC, spec.InC, spec.Kernel, spec.Kernel)
	w.FillRandom(rng, 1)
	b = make([]float32, spec.OutC)
	full := New(spec.OutC, spec.OutH(), spec.OutW())
	Conv2D(spec, full, src, w, b)
	split := New(spec.OutC, spec.OutH(), spec.OutW())
	Conv2DRange(spec, split, src, w, b, 0, 2)
	Conv2DRange(spec, split, src, w, b, 2, 5)
	Conv2DRange(spec, split, src, w, b, 5, 6)
	if !tensorsClose(full, split, 0) {
		t.Fatal("range-partitioned conv differs from full conv")
	}
}

func TestConvSpecValidate(t *testing.T) {
	bad := []ConvSpec{
		{InC: 0, InH: 4, InW: 4, OutC: 1, Kernel: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, OutC: 0, Kernel: 3, Stride: 1},
		{InC: 1, InH: 4, InW: 4, OutC: 1, Kernel: 0, Stride: 1},
		{InC: 1, InH: 4, InW: 4, OutC: 1, Kernel: 3, Stride: 0},
		{InC: 1, InH: 2, InW: 2, OutC: 1, Kernel: 3, Stride: 1}, // degenerate output
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, s)
		}
	}
	good := ConvSpec{InC: 3, InH: 32, InW: 32, OutC: 64, Kernel: 3, Stride: 1, Pad: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if good.OutH() != 32 || good.OutW() != 32 {
		t.Errorf("same-padding output = %dx%d, want 32x32", good.OutH(), good.OutW())
	}
}

func TestConvSpecFLOPs(t *testing.T) {
	s := ConvSpec{InC: 2, InH: 4, InW: 4, OutC: 3, Kernel: 2, Stride: 2}
	// OH=OW=2; FLOPs = 2*3*2*2*2*2*2 = 192.
	if got := s.FLOPs(); got != 192 {
		t.Errorf("FLOPs = %d, want 192", got)
	}
}

func TestMaxPool2DKnown(t *testing.T) {
	spec := PoolSpec{C: 1, H: 4, W: 4, Kernel: 2, Stride: 2}
	src := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4)
	dst := New(1, 2, 2)
	MaxPool2D(spec, dst, src)
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("pool = %v, want %v", dst.Data, want)
		}
	}
}

func TestMaxPool2DRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spec := PoolSpec{C: 5, H: 8, W: 8, Kernel: 2, Stride: 2}
	src := New(spec.C, spec.H, spec.W)
	src.FillRandom(rng, 1)
	full := New(spec.C, spec.OutH(), spec.OutW())
	MaxPool2D(spec, full, src)
	split := New(spec.C, spec.OutH(), spec.OutW())
	MaxPool2DRange(spec, split, src, 0, 3)
	MaxPool2DRange(spec, split, src, 3, 5)
	if !tensorsClose(full, split, 0) {
		t.Fatal("range-partitioned pool differs from full pool")
	}
}

func TestMaxPoolDominance(t *testing.T) {
	// Property: every pooled value is >= every value in its window, and
	// equals one of them.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spec := PoolSpec{C: 1 + rng.Intn(3), H: 4 + rng.Intn(6), W: 4 + rng.Intn(6), Kernel: 2, Stride: 2}
		src := New(spec.C, spec.H, spec.W)
		src.FillRandom(rng, 10)
		dst := New(spec.C, spec.OutH(), spec.OutW())
		MaxPool2D(spec, dst, src)
		for c := 0; c < spec.C; c++ {
			for oy := 0; oy < spec.OutH(); oy++ {
				for ox := 0; ox < spec.OutW(); ox++ {
					got := dst.At(c, oy, ox)
					found := false
					for ky := 0; ky < 2; ky++ {
						for kx := 0; kx < 2; kx++ {
							v := src.At(c, oy*2+ky, ox*2+kx)
							if v > got {
								return false
							}
							if v == got {
								found = true
							}
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReLU(t *testing.T) {
	tt := FromSlice([]float32{-1, 0, 2, -3, 4}, 5)
	ReLU(tt, 0, 5)
	want := []float32{0, 0, 2, 0, 4}
	for i := range want {
		if tt.Data[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", tt.Data, want)
		}
	}
	// Partial range leaves the rest untouched.
	tt2 := FromSlice([]float32{-1, -2, -3}, 3)
	ReLU(tt2, 0, 1)
	if tt2.Data[0] != 0 || tt2.Data[1] != -2 {
		t.Fatalf("partial ReLU = %v", tt2.Data)
	}
}

func TestLinearKnown(t *testing.T) {
	// w = [[1,2],[3,4],[5,6]], src = [1,1], b = [10,20,30]
	w := []float32{1, 2, 3, 4, 5, 6}
	src := []float32{1, 1}
	b := []float32{10, 20, 30}
	dst := make([]float32, 3)
	Linear(dst, src, w, b, 3, 2)
	want := []float32{13, 27, 41}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Linear = %v, want %v", dst, want)
		}
	}
}

func TestLinearRangePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const out, in = 16, 8
	w := make([]float32, out*in)
	src := make([]float32, in)
	for i := range w {
		w[i] = rng.Float32()
	}
	for i := range src {
		src[i] = rng.Float32()
	}
	full := make([]float32, out)
	Linear(full, src, w, nil, out, in)
	split := make([]float32, out)
	LinearRange(split, src, w, nil, in, 0, 5)
	LinearRange(split, src, w, nil, in, 5, 16)
	for i := range full {
		if full[i] != split[i] {
			t.Fatalf("range-partitioned linear differs at %d", i)
		}
	}
}

func BenchmarkConv2DDirect(b *testing.B) {
	spec := ConvSpec{InC: 16, InH: 16, InW: 16, OutC: 32, Kernel: 3, Stride: 1, Pad: 1}
	rng := rand.New(rand.NewSource(1))
	src := New(spec.InC, spec.InH, spec.InW)
	src.FillRandom(rng, 1)
	w := New(spec.OutC, spec.InC, spec.Kernel, spec.Kernel)
	w.FillRandom(rng, 1)
	dst := New(spec.OutC, spec.OutH(), spec.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(spec, dst, src, w, nil)
	}
}
