package octree

import (
	"math/bits"

	"bettertogether/internal/core"
)

// RadixTree is the binary radix tree of Karras (2012) over n sorted
// unique Morton codes: n-1 internal nodes and n leaves in one id space.
// Node ids 0..n-2 are internal (id 0 is the root); ids n-1..2n-2 are
// leaves (leaf k has id n-1+k).
type RadixTree struct {
	// N is the number of leaves (unique codes).
	N int
	// Left and Right are the children of internal node i.
	Left, Right []int32
	// Parent maps every node to its parent; the root's parent is -1.
	Parent []int32
	// PrefixLen is each node's common-prefix length in bits: the length
	// of the prefix shared by every code the node covers. Leaves have
	// MortonBits.
	PrefixLen []int32
}

// NewRadixTree pre-allocates a tree for up to maxN leaves.
func NewRadixTree(maxN int) *RadixTree {
	return &RadixTree{
		Left:      make([]int32, maxN-1),
		Right:     make([]int32, maxN-1),
		Parent:    make([]int32, 2*maxN-1),
		PrefixLen: make([]int32, 2*maxN-1),
	}
}

// LeafID returns the node id of leaf k.
func (t *RadixTree) LeafID(k int) int32 { return int32(t.N - 1 + k) }

// IsLeaf reports whether node id v is a leaf.
func (t *RadixTree) IsLeaf(v int32) bool { return int(v) >= t.N-1 }

// LeafIndex returns the code index of leaf node v.
func (t *RadixTree) LeafIndex(v int32) int { return int(v) - (t.N - 1) }

// NumNodes returns the total node count (internal + leaves).
func (t *RadixTree) NumNodes() int { return 2*t.N - 1 }

// delta returns the length of the common prefix of codes[i] and
// codes[j], or -1 when j is out of range — the δ function of Karras's
// construction. Codes must be unique, which duplicate removal
// guarantees, so δ < 32.
func delta(codes []uint32, i, j int) int {
	if j < 0 || j >= len(codes) {
		return -1
	}
	return bits.LeadingZeros32(codes[i] ^ codes[j])
}

// Build constructs the radix tree over the sorted unique codes. Every
// internal node is computed independently (Karras's key property), so the
// loop parallelizes perfectly over par; the work per node is a pair of
// binary searches with data-dependent branching — the irregular pattern
// that distinguishes this stage's performance profile.
//
// len(codes) must be >= 2; the single-code case never builds a tree (the
// octree stage special-cases it).
func (t *RadixTree) Build(codes []uint32, par core.ParallelFor) {
	n := len(codes)
	if n < 2 {
		panic("octree: radix tree needs at least 2 unique codes")
	}
	t.N = n
	t.Parent[0] = -1
	par(n-1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Direction of the node's range: toward the neighbor with
			// the longer common prefix.
			d := 1
			if delta(codes, i, i+1) < delta(codes, i, i-1) {
				d = -1
			}
			deltaMin := delta(codes, i, i-d)
			// Exponential search for an upper bound on the range length.
			lmax := 2
			for delta(codes, i, i+lmax*d) > deltaMin {
				lmax *= 2
			}
			// Binary search for the exact other end.
			l := 0
			for tstep := lmax / 2; tstep >= 1; tstep /= 2 {
				if delta(codes, i, i+(l+tstep)*d) > deltaMin {
					l += tstep
				}
			}
			j := i + l*d
			deltaNode := delta(codes, i, j)
			// Binary search for the split position.
			s := 0
			for tstep := (l + 1) / 2; ; tstep = (tstep + 1) / 2 {
				if delta(codes, i, i+(s+tstep)*d) > deltaNode {
					s += tstep
				}
				if tstep <= 1 {
					break
				}
			}
			gamma := i + s*d + min(d, 0)

			first, last := i, j
			if d < 0 {
				first, last = j, i
			}
			var left, right int32
			if first == gamma {
				left = t.LeafID(gamma)
			} else {
				left = int32(gamma)
			}
			if last == gamma+1 {
				right = t.LeafID(gamma + 1)
			} else {
				right = int32(gamma + 1)
			}
			t.Left[i], t.Right[i] = left, right
			t.Parent[left] = int32(i)
			t.Parent[right] = int32(i)
			// delta counts from bit 31 of the uint32, but 30-bit Morton
			// codes always share their two leading zero bits; convert to
			// Morton-prefix length for depth arithmetic.
			pl := int32(deltaNode - (32 - MortonBits))
			if pl < 0 {
				pl = 0
			}
			if pl > MortonBits {
				pl = MortonBits
			}
			t.PrefixLen[i] = pl
		}
	})
	// Leaves cover exactly one code: full prefix.
	par(n, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			t.PrefixLen[t.LeafID(k)] = MortonBits
		}
	})
}
