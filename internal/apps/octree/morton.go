// Package octree implements the paper's third evaluation workload
// (Sec. 4.1): parallel octree construction over streaming point clouds,
// following Karras, "Maximizing Parallelism in the Construction of BVHs,
// Octrees, and k-d trees" (HPG 2012). The pipeline has seven stages with
// deliberately mixed computational character:
//
//  1. Morton Encoding   — regular DOALL over points
//  2. Sort              — LSD radix sort, parallel but bandwidth-heavy
//  3. Duplicate Removal — scan + scatter
//  4. Build Radix Tree  — per-node binary searches, irregular
//  5. Edge Counting     — tree walk per node, irregular
//  6. Prefix Sum        — blocked parallel exclusive scan
//  7. Build Octree      — pointer-heavy node emission
//
// Stages 4, 5 and 7 are the graph-shaped work that GPUs handle poorly
// (Sec. 2.1), which is what makes this workload scheduling-interesting.
package octree

// MortonBits is the total Morton code width: 10 bits per axis, giving a
// maximum octree depth of 10 levels below the root.
const MortonBits = 30

// BitsPerAxis is the per-axis quantization width.
const BitsPerAxis = 10

// MaxDepth is the deepest octree level (leaf cells).
const MaxDepth = MortonBits / 3

// spread3 inserts two zero bits between each of the low 10 bits of v:
// ...9876543210 -> 9..8..7..6..5..4..3..2..1..0 (standard magic-number
// bit interleave).
func spread3(v uint32) uint32 {
	v &= 0x3ff
	v = (v | v<<16) & 0x030000ff
	v = (v | v<<8) & 0x0300f00f
	v = (v | v<<4) & 0x030c30c3
	v = (v | v<<2) & 0x09249249
	return v
}

// EncodeMorton interleaves three 10-bit cell coordinates into a 30-bit
// Morton code with x in the lowest interleave slot.
func EncodeMorton(x, y, z uint32) uint32 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// Quantize maps a coordinate in [0, 1) to a 10-bit cell index, clamping
// out-of-range inputs to the boundary cells.
func Quantize(v float32) uint32 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 1<<BitsPerAxis - 1
	}
	return uint32(v * (1 << BitsPerAxis))
}

// EncodePoint quantizes a normalized 3-D point and returns its Morton
// code.
func EncodePoint(x, y, z float32) uint32 {
	return EncodeMorton(Quantize(x), Quantize(y), Quantize(z))
}

// Digit returns the 3-bit octant index of a code at octree depth d,
// where d=1 addresses the root's children and d=MaxDepth the leaf level.
func Digit(code uint32, d int) uint32 {
	return (code >> uint(MortonBits-3*d)) & 7
}
