package tensor

// PoolSpec describes 2-D max pooling over CHW data.
type PoolSpec struct {
	C, H, W int
	Kernel  int
	Stride  int
}

// OutH returns the pooled output height.
func (s PoolSpec) OutH() int { return (s.H-s.Kernel)/s.Stride + 1 }

// OutW returns the pooled output width.
func (s PoolSpec) OutW() int { return (s.W-s.Kernel)/s.Stride + 1 }

// MaxPool2D max-pools all channels of src [C, H, W] into dst [C, OH, OW].
func MaxPool2D(spec PoolSpec, dst, src *Tensor) {
	MaxPool2DRange(spec, dst, src, 0, spec.C)
}

// MaxPool2DRange pools channels [cLo, cHi) only; the per-channel split is
// what worker pools parallelize.
func MaxPool2DRange(spec PoolSpec, dst, src *Tensor, cLo, cHi int) {
	oh, ow := spec.OutH(), spec.OutW()
	k, st := spec.Kernel, spec.Stride
	sd, dd := src.Data, dst.Data
	for c := cLo; c < cHi; c++ {
		sBase := c * spec.H * spec.W
		dBase := c * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy0, ix0 := oy*st, ox*st
				best := sd[sBase+iy0*spec.W+ix0]
				for ky := 0; ky < k; ky++ {
					row := sBase + (iy0+ky)*spec.W
					for kx := 0; kx < k; kx++ {
						if v := sd[row+ix0+kx]; v > best {
							best = v
						}
					}
				}
				dd[dBase+oy*ow+ox] = best
			}
		}
	}
}

// ReLU applies max(0, x) elementwise over [lo, hi) of t.Data in place.
func ReLU(t *Tensor, lo, hi int) {
	d := t.Data
	for i := lo; i < hi; i++ {
		if d[i] < 0 {
			d[i] = 0
		}
	}
}

// Linear computes dst = w × src + b where w is [Out, In] row-major,
// src has In elements and dst has Out elements.
func Linear(dst, src, w, b []float32, out, in int) {
	LinearRange(dst, src, w, b, in, 0, out)
}

// LinearRange computes output rows [oLo, oHi) of a fully-connected layer.
func LinearRange(dst, src, w, b []float32, in, oLo, oHi int) {
	for o := oLo; o < oHi; o++ {
		acc := float32(0)
		if b != nil {
			acc = b[o]
		}
		row := w[o*in : (o+1)*in]
		for i, s := range src {
			acc += row[i] * s
		}
		dst[o] = acc
	}
}
