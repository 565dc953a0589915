package octree

import "bettertogether/internal/core"

// CountEdges fills counts[v] with the number of octree nodes radix-tree
// node v contributes (Karras Sec. 4: the edge from v's parent to v passes
// floor(δ(v)/3) − floor(δ(parent(v))/3) octree levels). The root's count
// additionally includes the depth-0 octree root itself, so every tree
// contributes at least one node. counts must have t.NumNodes() entries.
func CountEdges(t *RadixTree, counts []int32, par core.ParallelFor) {
	par(t.NumNodes(), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v == 0 {
				counts[0] = t.PrefixLen[0]/3 + 1
				continue
			}
			p := t.Parent[v]
			counts[v] = t.PrefixLen[v]/3 - t.PrefixLen[p]/3
		}
	})
}

// ExclusiveScan computes offsets[i] = sum(counts[:i]) and returns the
// total, using the standard blocked three-phase parallel formulation:
// per-band partial sums, a serial scan of band totals, and a parallel
// rescan adding band bases. offsets must be at least as long as counts.
func ExclusiveScan(counts, offsets []int32, par core.ParallelFor) int32 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	var bandSums [sortBands]int32
	par(sortBands, func(bLo, bHi int) {
		for b := bLo; b < bHi; b++ {
			lo, hi := bandRange(b, n)
			var s int32
			for i := lo; i < hi; i++ {
				s += counts[i]
			}
			bandSums[b] = s
		}
	})
	var bases [sortBands]int32
	var total int32
	for b := 0; b < sortBands; b++ {
		bases[b] = total
		total += bandSums[b]
	}
	par(sortBands, func(bLo, bHi int) {
		for b := bLo; b < bHi; b++ {
			lo, hi := bandRange(b, n)
			run := bases[b]
			for i := lo; i < hi; i++ {
				offsets[i] = run
				run += counts[i]
			}
		}
	})
	return total
}

// OctNode is one cell of the final octree. Children are indices into the
// node array (-1 for empty octants); Leaf is the unique-code index for
// leaf cells at MaxDepth, or -1.
type OctNode struct {
	Children [8]int32
	Leaf     int32
	// Mask has bit d set iff Children[d] >= 0; filled by a final pass.
	Mask uint8
}

// Octree is the constructed spatial hierarchy.
type Octree struct {
	// Nodes[0] is not necessarily the root; see Root.
	Nodes []OctNode
	// Root indexes the depth-0 node.
	Root int32
}

// BuildOctree emits the octree nodes for the radix tree: each radix node
// v with counts[v] > 0 owns the chain of octree cells along the edge to
// its parent, the chain's top node attaches to the bottom node of the
// nearest ancestor with a nonzero count, and leaf chains terminate in
// leaf cells carrying their code index. nodes is the pre-allocated
// output (length >= total from ExclusiveScan); it is fully reinitialized.
//
// The per-node work — parent-pointer chasing to find the attachment
// ancestor plus scattered child writes — is the pointer-heavy pattern
// that makes this stage hostile to lockstep execution.
func BuildOctree(t *RadixTree, codes []uint32, counts, offsets []int32,
	nodes []OctNode, par core.ParallelFor) Octree {

	total := int(offsets[len(offsets)-1] + counts[len(counts)-1])
	nodes = nodes[:total]
	par(total, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			nodes[i] = OctNode{
				Children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
				Leaf:     -1,
			}
		}
	})

	par(t.NumNodes(), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			c := counts[v]
			if c == 0 {
				continue
			}
			// A representative code covered by v: the first code of its
			// range. All chain digits lie within the shared prefix, so
			// any covered code gives the same digits.
			code := codes[t.coveredFirst(int32(v))]
			// Chain node k sits at octree depth dTop+k.
			var dTop int32
			if v == 0 {
				dTop = 0
			} else {
				dTop = t.PrefixLen[t.Parent[v]]/3 + 1
			}
			base := offsets[v]
			// Internal chain links (single owner: no races).
			for k := int32(1); k < c; k++ {
				slot := Digit(code, int(dTop+k))
				nodes[base+k-1].Children[slot] = base + k
			}
			// Attach the chain top to the nearest emitting ancestor's
			// bottom node. Distinct subtrees attach at distinct slots
			// (they differ in the digit at dTop), so these cross-node
			// writes never collide.
			if v != 0 {
				a := t.Parent[v]
				for counts[a] == 0 {
					a = t.Parent[a]
				}
				abottom := offsets[a] + counts[a] - 1
				slot := Digit(code, int(dTop))
				nodes[abottom].Children[slot] = base
			}
			// Leaf chains terminate in the cell holding the code.
			if t.IsLeaf(int32(v)) {
				nodes[base+c-1].Leaf = int32(t.LeafIndex(int32(v)))
			}
		}
	})

	// Final pass: derive child masks (done separately because two
	// subtrees may attach to one ancestor node concurrently; a read-only
	// derivation avoids read-modify-write races on the mask byte).
	// Bit d is set iff Children[d] >= 0, so the mask is the complement
	// of the eight children's sign bits, with no data-dependent branch.
	par(total, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c := &nodes[i].Children
			m := ^(uint32(c[0])>>31 | uint32(c[1])>>31<<1 | uint32(c[2])>>31<<2 | uint32(c[3])>>31<<3 |
				uint32(c[4])>>31<<4 | uint32(c[5])>>31<<5 | uint32(c[6])>>31<<6 | uint32(c[7])>>31<<7)
			nodes[i].Mask = uint8(m)
		}
	})
	return Octree{Nodes: nodes, Root: offsets[0]}
}

// coveredFirst returns the index of the first code covered by node v.
func (t *RadixTree) coveredFirst(v int32) int {
	for !t.IsLeaf(v) {
		v = t.Left[int(v)]
	}
	return t.LeafIndex(v)
}

// BuildSingleCodeOctree handles the degenerate one-unique-code input: a
// straight chain from the root to the single leaf cell.
func BuildSingleCodeOctree(code uint32, nodes []OctNode) Octree {
	total := MaxDepth + 1
	nodes = nodes[:total]
	for i := range nodes {
		nodes[i] = OctNode{
			Children: [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
			Leaf:     -1,
		}
	}
	for d := 1; d <= MaxDepth; d++ {
		slot := Digit(code, d)
		nodes[d-1].Children[slot] = int32(d)
		nodes[d-1].Mask = 1 << slot
	}
	nodes[MaxDepth].Leaf = 0
	return Octree{Nodes: nodes, Root: 0}
}
