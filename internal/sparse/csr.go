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

// SpMMRange computes output rows [rLo, rHi) of C = m × B, where B is
// dense k×n row-major (k = m.Cols) and C is dense Rows×n row-major. This
// is the sparse-weights × im2col-columns product that implements sparse
// convolution. The row split is the unit of parallelism for worker
// pools; rows have uneven nonzero counts, the load imbalance that hurts
// lockstep GPU execution.
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

// PruneCSR builds a rows×cols CSR matrix of per-row magnitude-pruned
// weights (the "structured" pruning shape Condensa applies to conv
// layers, which keeps rows non-empty and bounds imbalance) without ever
// holding the dense matrix. fill writes the next row's dense weights
// into row, a buffer of length cols reused across calls; it is called
// once per row, in row order. sparsity must be in [0, 1).
//
// Each row drops its floor(sparsity·cols) smallest weights in the order
// (|w|, column): equal magnitudes — ±x pairs, ±0 — lose the lower
// column first. NaN ranks above ±Inf, so a NaN weight is never pruned
// while its row holds at least that many non-NaN weights. Surviving
// exact zeros are not stored.
func PruneCSR(rows, cols int, sparsity float64, fill func(row []float32)) *CSR {
	if sparsity < 0 || sparsity >= 1 {
		panic(fmt.Sprintf("sparse: sparsity %v out of [0,1)", sparsity))
	}
	drop := int(math.Floor(sparsity * float64(cols)))
	m := NewCSR(rows, cols)
	// Which weights survive is data-dependent and unpredictable, so the
	// emit loop stores every weight and advances only past survivors;
	// the one spare slot takes the store after the last survivor.
	col := make([]int32, rows*(cols-drop)+1)
	val := make([]float32, len(col))
	row := make([]float32, cols)
	var keys []uint64
	var hist [1 << (31 - histShift)]int32
	if drop > 0 {
		keys = make([]uint64, cols)
	}
	n := 0
	for i := 0; i < rows; i++ {
		fill(row)
		// Keep keys from the row's threshold up; ±0's keys are below
		// 1<<32, so the same comparison drops surviving zeros.
		lo := uint64(1) << 32
		if drop > 0 {
			lo = max(lo, dropThreshold(row, drop, &hist, keys))
		}
		for j, w := range row {
			col[n], val[n] = int32(j), w
			if pruneKey(w, j) >= lo {
				n++
			}
		}
		m.RowPtr[i+1] = int32(n)
	}
	m.Col, m.Val = col[:n:n], val[:n:n]
	return m
}

// histShift leaves the top 11 of a magnitude's 31 bits — the exponent
// and 3 mantissa bits — as dropThreshold's histogram bucket, so a bucket
// spans an eighth of a binade.
const histShift = 20

// dropThreshold returns the key of rank drop (0-based) in row's
// (|w|, column) order, the smallest key that survives pruning. It
// histograms the row by high magnitude bits, finds the one bucket that
// holds that rank, and selects inside that bucket alone; keys is scratch
// of length len(row). drop must be in [1, len(row)).
func dropThreshold(row []float32, drop int, hist *[1 << (31 - histShift)]int32, keys []uint64) uint64 {
	clear(hist[:])
	for _, w := range row {
		hist[pruneKey(w, 0)>>(32+histShift)]++
	}
	b, below := uint64(0), 0
	for ; below+int(hist[b]) <= drop; b++ {
		below += int(hist[b])
	}
	n := 0
	for j, w := range row {
		k := pruneKey(w, j)
		keys[n] = k
		if k>>(32+histShift) == b {
			n++
		}
	}
	r := drop - below
	selectSmallest(keys[:n], r)
	return slices.Min(keys[r:n])
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
