package alexnet

import (
	"bettertogether/internal/core"
	"bettertogether/internal/tensor"
)

// Stage kernels. Dense convolution parallelizes over (image, output
// channel) pairs — the same decomposition the paper's OpenMP collapse and
// CUDA grid use. Sparse convolution runs im2col then CSR×cols, row-banded
// over output channels. Pooling parallelizes over (image, channel) and
// the classifier over (image, class row).

// denseConvStage returns the kernel of conv layer li writing stage index
// si's output, with fused ReLU.
func denseConvStage(li, si int) core.KernelFunc {
	return func(to *core.TaskObject, par core.ParallelFor) {
		t := to.Payload.(*Task)
		layer := &t.Model.Convs[li]
		spec := layer.Spec
		inLen := spec.InC * spec.InH * spec.InW
		outLen := spec.OutC * spec.OutH() * spec.OutW()
		src, dst := t.in(si), t.out(si)
		ohw := spec.OutH() * spec.OutW()
		par(t.B*spec.OutC, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				b, oc := u/spec.OutC, u%spec.OutC
				sv := tensor.FromSlice(src[b*inLen:(b+1)*inLen], spec.InC, spec.InH, spec.InW)
				dv := tensor.FromSlice(dst[b*outLen:(b+1)*outLen], spec.OutC, spec.OutH(), spec.OutW())
				tensor.Conv2DRange(spec, dv, sv, layer.W, layer.Bias, oc, oc+1)
				tensor.ReLU(dv, oc*ohw, (oc+1)*ohw)
			}
		})
	}
}

// sparseConvStage is the CSR variant: per-image im2col, then banded SpMM
// with fused ReLU.
func sparseConvStage(li, si int) core.KernelFunc {
	return func(to *core.TaskObject, par core.ParallelFor) {
		t := to.Payload.(*Task)
		layer := &t.Model.Convs[li]
		spec := layer.Spec
		inLen := spec.InC * spec.InH * spec.InW
		outLen := spec.OutC * spec.OutH() * spec.OutW()
		colRows := spec.InC * spec.Kernel * spec.Kernel
		n := spec.OutH() * spec.OutW()
		colLen := colRows * n
		src, dst, cols := t.in(si), t.out(si), t.Cols.Data
		// Phase 1: im2col each image.
		par(t.B, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				sv := tensor.FromSlice(src[b*inLen:(b+1)*inLen], spec.InC, spec.InH, spec.InW)
				cv := tensor.FromSlice(cols[b*colLen:(b+1)*colLen], colRows, n)
				tensor.Im2Col(spec, sv, cv)
			}
		})
		// Phase 2: sparse weights × columns, one (image, out-channel) row
		// per work unit.
		par(t.B*spec.OutC, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				b, oc := u/spec.OutC, u%spec.OutC
				c := dst[b*outLen : (b+1)*outLen]
				layer.CSR.SpMMRange(c, cols[b*colLen:(b+1)*colLen], n, oc, oc+1)
				bias := layer.Bias[oc]
				row := c[oc*n : (oc+1)*n]
				for j := range row {
					v := row[j] + bias
					if v < 0 {
						v = 0
					}
					row[j] = v
				}
			}
		})
	}
}

// poolStage pools conv layer li's output at stage index si.
func poolStage(li, si int) core.KernelFunc {
	return func(to *core.TaskObject, par core.ParallelFor) {
		t := to.Payload.(*Task)
		spec := t.Model.Pools[li]
		inLen := spec.C * spec.H * spec.W
		outLen := spec.C * spec.OutH() * spec.OutW()
		src, dst := t.in(si), t.out(si)
		par(t.B*spec.C, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				b, c := u/spec.C, u%spec.C
				sv := tensor.FromSlice(src[b*inLen:(b+1)*inLen], spec.C, spec.H, spec.W)
				dv := tensor.FromSlice(dst[b*outLen:(b+1)*outLen], spec.C, spec.OutH(), spec.OutW())
				tensor.MaxPool2DRange(spec, dv, sv, c, c+1)
			}
		})
	}
}

// fcStage is the final classifier at stage index si.
func fcStage(si int) core.KernelFunc {
	return func(to *core.TaskObject, par core.ParallelFor) {
		t := to.Payload.(*Task)
		m := t.Model
		src, dst := t.in(si), t.Logits.Data
		par(t.B*Classes, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				b, row := u/Classes, u%Classes
				tensor.LinearRange(dst[b*Classes:(b+1)*Classes],
					src[b*m.FCIn:(b+1)*m.FCIn], m.FCW, m.FCB, m.FCIn, row, row+1)
			}
		})
	}
}
