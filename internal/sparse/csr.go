// Package sparse provides the Compressed Sparse Row substrate for the
// AlexNet-sparse workload (paper Sec. 4.1). The paper prunes AlexNet's
// convolutional layers with Condensa and stores the weight tensors in CSR;
// we reproduce that with deterministic structured pruning of synthetic
// weights. The resulting irregular, indirection-heavy inner loops are what
// make the sparse variant scheduling-interesting: they favor out-of-order
// CPU cores over lockstep GPU lanes.
package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// CSR is a compressed-sparse-row float32 matrix.
//
// Row i's nonzeros are Val[RowPtr[i]:RowPtr[i+1]] in columns
// Col[RowPtr[i]:RowPtr[i+1]], with column indices strictly increasing
// within a row.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	Col        []int32
	Val        []float32
}

// NewCSR builds an empty matrix with the given shape.
func NewCSR(rows, cols int) *CSR {
	return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Density returns NNZ / (Rows*Cols).
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// Validate checks the CSR structural invariants: monotone row pointers,
// in-bounds and strictly increasing column indices per row.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.Val) || len(m.Val) != len(m.Col) {
		return fmt.Errorf("sparse: inconsistent nnz: rowptr %d, val %d, col %d",
			m.RowPtr[m.Rows], len(m.Val), len(m.Col))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has negative extent", i)
		}
		prev := int32(-1)
		for p := lo; p < hi; p++ {
			c := m.Col[p]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: row %d column %d out of range", i, c)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing", i)
			}
			prev = c
		}
	}
	return nil
}

// FromDense converts a row-major dense matrix to CSR, dropping exact
// zeros.
func FromDense(dense []float32, rows, cols int) *CSR {
	if len(dense) != rows*cols {
		panic(fmt.Sprintf("sparse: dense size %d != %d*%d", len(dense), rows, cols))
	}
	nnz := 0
	for _, v := range dense {
		if v != 0 {
			nnz++
		}
	}
	m := NewCSR(rows, cols)
	m.Col = make([]int32, 0, nnz)
	m.Val = make([]float32, 0, nnz)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := dense[i*cols+j]; v != 0 {
				m.Col = append(m.Col, int32(j))
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = int32(len(m.Val))
	}
	return m
}

// ToDense expands the matrix to a row-major dense slice.
func (m *CSR) ToDense() []float32 {
	out := make([]float32, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out[i*m.Cols+int(m.Col[p])] = m.Val[p]
		}
	}
	return out
}

// At returns element (i, j) via binary search over row i's columns.
func (m *CSR) At(i, j int) float32 {
	lo, hi := int(m.RowPtr[i]), int(m.RowPtr[i+1])
	seg := m.Col[lo:hi]
	k := sort.Search(len(seg), func(x int) bool { return seg[x] >= int32(j) })
	if k < len(seg) && seg[k] == int32(j) {
		return m.Val[lo+k]
	}
	return 0
}

// SpMV computes dst = m × x for a dense vector x of length Cols.
func (m *CSR) SpMV(dst, x []float32) {
	m.SpMVRange(dst, x, 0, m.Rows)
}

// SpMVRange computes rows [rLo, rHi) of dst = m × x. The row split is the
// unit of parallelism for worker pools; rows have uneven nonzero counts,
// which is exactly the load imbalance that hurts lockstep GPU execution.
func (m *CSR) SpMVRange(dst, x []float32, rLo, rHi int) {
	for i := rLo; i < rHi; i++ {
		var acc float32
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			acc += m.Val[p] * x[m.Col[p]]
		}
		dst[i] = acc
	}
}

// SpMM computes C = m × B where B is dense k×n row-major (k = m.Cols) and
// C is dense Rows×n row-major. This is the sparse-weights × im2col-columns
// product that implements sparse convolution.
func (m *CSR) SpMM(c, b []float32, n int) {
	m.SpMMRange(c, b, n, 0, m.Rows)
}

// SpMMRange computes output rows [rLo, rHi) of C = m × B.
func (m *CSR) SpMMRange(c, b []float32, n int, rLo, rHi int) {
	for i := rLo; i < rHi; i++ {
		ci := c[i*n : (i+1)*n]
		for x := range ci {
			ci[x] = 0
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := m.Val[p]
			brow := b[int(m.Col[p])*n : (int(m.Col[p])+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += v * brow[j]
			}
		}
	}
}

// RowNNZ returns the nonzero count of row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// Imbalance returns max-row-nnz / mean-row-nnz, a measure of the load
// imbalance a lockstep execution of one row per lane would suffer.
func (m *CSR) Imbalance() float64 {
	if m.Rows == 0 || m.NNZ() == 0 {
		return 1
	}
	maxN := 0
	for i := 0; i < m.Rows; i++ {
		if n := m.RowNNZ(i); n > maxN {
			maxN = n
		}
	}
	mean := float64(m.NNZ()) / float64(m.Rows)
	return float64(maxN) / mean
}

// Prune returns a copy of dense with the smallest-magnitude fraction
// `sparsity` of each row's weights zeroed (per-row magnitude pruning —
// the "structured" pruning shape Condensa applies to conv layers, which
// keeps rows non-empty and bounds imbalance). sparsity must be in [0, 1).
//
// Each row drops its floor(sparsity·cols) smallest weights in the order
// (|w|, column): equal magnitudes — ±x pairs, ±0 — lose the lower
// column first. NaN ranks above ±Inf, so a NaN weight is never pruned
// while its row holds at least that many non-NaN weights.
func Prune(dense []float32, rows, cols int, sparsity float64) []float32 {
	if sparsity < 0 || sparsity >= 1 {
		panic(fmt.Sprintf("sparse: sparsity %v out of [0,1)", sparsity))
	}
	out := make([]float32, len(dense))
	copy(out, dense)
	drop := int(math.Floor(sparsity * float64(cols)))
	if drop == 0 {
		return out
	}
	keys := make([]uint64, cols)
	for i := 0; i < rows; i++ {
		row := out[i*cols : (i+1)*cols]
		for j, w := range row {
			keys[j] = pruneKey(w, j)
		}
		selectSmallest(keys, drop)
		for _, k := range keys[:drop] {
			row[uint32(k)] = 0
		}
	}
	return out
}

// pruneKey packs weight w at column j into one integer that orders by
// (|w|, j): the bits of a non-negative float32 order like its value, and
// NaN's exponent places it above +Inf. Keys within a row are distinct.
func pruneKey(w float32, j int) uint64 {
	return uint64(math.Float32bits(w)&^(1<<31))<<32 | uint64(j)
}

// selectSmallest reorders distinct keys so keys[:k] hold the k smallest,
// in no particular order. It is quickselect with a median-of-three
// pivot; after 2·log2(n) partition rounds it sorts the remaining range
// instead, bounding the worst case at O(n log n).
func selectSmallest(keys []uint64, k int) {
	// Invariant: keys[:lo] < keys[lo:hi] < keys[hi:], and lo <= k <= hi.
	lo, hi := 0, len(keys)
	for rounds := 2 * bits.Len(uint(len(keys))); hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.Sort(keys[lo:hi])
			return
		}
		p := lo + partition(keys[lo:hi])
		switch {
		case p < k:
			lo = p + 1
		case p > k:
			hi = p
		default:
			return
		}
	}
}

// partition places a median-of-three pivot at its sorted position in a,
// with smaller keys before it and larger after, and returns the position.
func partition(a []uint64) int {
	n, m := len(a)-1, len(a)/2
	if a[m] < a[0] {
		a[0], a[m] = a[m], a[0]
	}
	if a[n] < a[0] {
		a[0], a[n] = a[n], a[0]
	}
	if a[m] < a[n] {
		a[m], a[n] = a[n], a[m]
	}
	pivot, i := a[n], 0
	for j := 0; j < n; j++ {
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[n] = a[n], a[i]
	return i
}
