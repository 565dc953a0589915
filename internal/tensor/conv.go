package tensor

import "fmt"

// ConvSpec describes a 2-D convolution: weight layout is [OC, IC, K, K],
// input is CHW [IC, H, W], output is CHW [OC, OH, OW] with
// OH = (H + 2*Pad - K)/Stride + 1.
type ConvSpec struct {
	InC, InH, InW int
	OutC          int
	Kernel        int
	Stride        int
	Pad           int
}

// OutH returns the output height for the spec.
func (s ConvSpec) OutH() int { return (s.InH+2*s.Pad-s.Kernel)/s.Stride + 1 }

// OutW returns the output width for the spec.
func (s ConvSpec) OutW() int { return (s.InW+2*s.Pad-s.Kernel)/s.Stride + 1 }

// Validate checks internal consistency of the spec.
func (s ConvSpec) Validate() error {
	switch {
	case s.InC <= 0 || s.InH <= 0 || s.InW <= 0:
		return fmt.Errorf("tensor: invalid input dims %dx%dx%d", s.InC, s.InH, s.InW)
	case s.OutC <= 0:
		return fmt.Errorf("tensor: invalid output channels %d", s.OutC)
	case s.Kernel <= 0 || s.Stride <= 0 || s.Pad < 0:
		return fmt.Errorf("tensor: invalid kernel/stride/pad %d/%d/%d", s.Kernel, s.Stride, s.Pad)
	case s.OutH() <= 0 || s.OutW() <= 0:
		return fmt.Errorf("tensor: degenerate output %dx%d", s.OutH(), s.OutW())
	}
	return nil
}

// FLOPs returns the multiply-add count (counted as 2 ops each) for one
// forward pass, used by the cost models.
func (s ConvSpec) FLOPs() int64 {
	return 2 * int64(s.OutC) * int64(s.OutH()) * int64(s.OutW()) *
		int64(s.InC) * int64(s.Kernel) * int64(s.Kernel)
}

// Conv2D computes dst = conv(src, w) + b over all output channels.
// dst is [OutC, OH, OW]; src is [InC, H, W]; w is [OutC, InC, K, K];
// b is length OutC (may be nil for no bias).
func Conv2D(spec ConvSpec, dst, src, w *Tensor, b []float32) {
	Conv2DRange(spec, dst, src, w, b, 0, spec.OutC)
}

// Conv2DRange computes output channels [ocLo, ocHi) only. This is the
// unit that worker pools split: each simulated core or GPU workgroup
// takes a contiguous band of output channels.
func Conv2DRange(spec ConvSpec, dst, src, w *Tensor, b []float32, ocLo, ocHi int) {
	oh, ow := spec.OutH(), spec.OutW()
	k, st, pad := spec.Kernel, spec.Stride, spec.Pad
	inH, inW, inC := spec.InH, spec.InW, spec.InC
	sd, dd, wd := src.Data, dst.Data, w.Data
	for oc := ocLo; oc < ocHi; oc++ {
		bias := float32(0)
		if b != nil {
			bias = b[oc]
		}
		wBase := oc * inC * k * k
		dBase := oc * oh * ow
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*st - pad
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*st - pad
				acc := bias
				for ic := 0; ic < inC; ic++ {
					sBase := ic * inH * inW
					wcBase := wBase + ic*k*k
					for ky := 0; ky < k; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= inH {
							continue
						}
						srow := sBase + iy*inW
						wrow := wcBase + ky*k
						for kx := 0; kx < k; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= inW {
								continue
							}
							acc += sd[srow+ix] * wd[wrow+kx]
						}
					}
				}
				dd[dBase+oy*ow+ox] = acc
			}
		}
	}
}

// Im2Col expands src [InC, H, W] into a column matrix of shape
// [InC*K*K, OH*OW] so convolution becomes a GEMM: W[OC, InC*K*K] × cols.
// Out-of-bounds (padding) positions contribute zeros.
func Im2Col(spec ConvSpec, src, cols *Tensor) {
	oh, ow := spec.OutH(), spec.OutW()
	k, st, pad := spec.Kernel, spec.Stride, spec.Pad
	inH, inW := spec.InH, spec.InW
	sd, cd := src.Data, cols.Data
	colW := oh * ow
	for ic := 0; ic < spec.InC; ic++ {
		sBase := ic * inH * inW
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := (ic*k+ky)*k + kx
				cBase := row * colW
				for oy := 0; oy < oh; oy++ {
					iy := oy*st - pad + ky
					for ox := 0; ox < ow; ox++ {
						ix := ox*st - pad + kx
						var v float32
						if iy >= 0 && iy < inH && ix >= 0 && ix < inW {
							v = sd[sBase+iy*inW+ix]
						}
						cd[cBase+oy*ow+ox] = v
					}
				}
			}
		}
	}
}
