package octree

import (
	"math/rand"

	"bettertogether/internal/core"
)

// Generator produces synthetic point clouds. The paper streams LiDAR-like
// frames; without sensor data we generate seeded clouds whose spatial
// statistics span the interesting regimes (uniform scatter, dense
// clusters with many duplicate cells, coherent surfaces).
type Generator interface {
	// Name identifies the distribution in reports.
	Name() string
	// Fill writes n points (3n coords in [0,1)) deterministically for the
	// given stream sequence number.
	Fill(points []float32, n, seq int)
}

// UniformGen scatters points uniformly in the unit cube.
type UniformGen struct{}

// Name implements Generator.
func (UniformGen) Name() string { return "uniform" }

// Fill implements Generator.
func (UniformGen) Fill(points []float32, n, seq int) {
	rng := rand.New(rand.NewSource(int64(seq)*7919 + 17))
	for i := 0; i < 3*n; i++ {
		points[i] = rng.Float32()
	}
}

// ClusterGen draws points from a handful of tight Gaussian blobs,
// producing many duplicate Morton cells — the regime where duplicate
// removal earns its keep.
type ClusterGen struct {
	// Clusters is the blob count (default 8 when zero).
	Clusters int
	// Sigma is the blob radius (default 0.02 when zero).
	Sigma float64
}

// Name implements Generator.
func (g ClusterGen) Name() string { return "clustered" }

// Fill implements Generator.
func (g ClusterGen) Fill(points []float32, n, seq int) {
	k := g.Clusters
	if k <= 0 {
		k = 8
	}
	sigma := g.Sigma
	if sigma <= 0 {
		sigma = 0.02
	}
	rng := rand.New(rand.NewSource(int64(seq)*104729 + 5))
	centers := make([]float64, 3*k)
	for i := range centers {
		centers[i] = 0.1 + 0.8*rng.Float64()
	}
	clamp := func(v float64) float32 {
		if v < 0 {
			return 0
		}
		if v >= 1 {
			return float32(0.999999)
		}
		return float32(v)
	}
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		for a := 0; a < 3; a++ {
			points[3*i+a] = clamp(centers[3*c+a] + rng.NormFloat64()*sigma)
		}
	}
}

// SurfaceGen samples a gently curved sheet, mimicking the spatial
// coherence of a depth-camera frame.
type SurfaceGen struct{}

// Name implements Generator.
func (SurfaceGen) Name() string { return "surface" }

// Fill implements Generator.
func (SurfaceGen) Fill(points []float32, n, seq int) {
	rng := rand.New(rand.NewSource(int64(seq)*31337 + 3))
	for i := 0; i < n; i++ {
		x := rng.Float64()
		y := rng.Float64()
		z := 0.5 + 0.2*(x*x-y*y) + rng.NormFloat64()*0.003
		if z < 0 {
			z = 0
		}
		if z >= 1 {
			z = 0.999999
		}
		points[3*i] = float32(x)
		points[3*i+1] = float32(y)
		points[3*i+2] = float32(z)
	}
}

// Task is the octree pipeline's TaskObject payload: every buffer one
// point-cloud frame needs from Morton encoding to the finished octree,
// pre-allocated for the worst case (paper Sec. 3.4, "TaskObject").
type Task struct {
	// N is the point count per frame.
	N int
	// Gen regenerates the input when the task is recycled.
	Gen Generator

	// Points holds 3N coordinates in [0,1).
	Points *core.UsmBuffer[float32]
	// Codes holds the Morton codes; sorted in place by stage 2 and
	// compacted by stage 3.
	Codes *core.UsmBuffer[uint32]
	// Scratch is the radix sort / compaction working memory.
	Scratch *SortScratch
	// NumUnique is stage 3's output count.
	NumUnique int
	// Tree is the binary radix tree (stage 4).
	Tree *RadixTree
	// Counts and Offsets are the edge counts and their exclusive scan
	// (stages 5-6); entry 2*N-1 of Offsets... both are sized 2N-1 and
	// trimmed to 2*NumUnique-1 live entries per frame.
	Counts, Offsets *core.UsmBuffer[int32]
	// TotalNodes is stage 6's scan total.
	TotalNodes int32
	// Nodes is the octree node arena, allocated once by NewTask at
	// nodeBound(N), which no frame of N points exceeds.
	Nodes []OctNode
	// Result is the finished octree of the current frame.
	Result Octree
}

// NewTask allocates a task for n-point frames using gen, generating the
// seq-0 input.
func NewTask(n int, gen Generator) *Task {
	t := &Task{
		N:       n,
		Gen:     gen,
		Points:  core.NewUsmBuffer[float32](3 * n),
		Codes:   core.NewUsmBuffer[uint32](n),
		Scratch: NewSortScratch(n),
		Tree:    NewRadixTree(n),
		Counts:  core.NewUsmBuffer[int32](2*n - 1),
		Offsets: core.NewUsmBuffer[int32](2*n - 1),
		Nodes:   make([]OctNode, nodeBound(n)),
	}
	t.Regenerate(0)
	return t
}

// Regenerate refills the input for stream sequence seq and clears the
// derived state.
func (t *Task) Regenerate(seq int) {
	t.Gen.Fill(t.Points.Data, t.N, seq)
	t.NumUnique = 0
	t.TotalNodes = 0
	t.Result = Octree{}
}

// nodeBound is the most octree nodes n points can produce:
// Σ_{d=0}^{MaxDepth} min(8^d, n). A depth-d cell is a distinct 3d-bit
// prefix of the unique codes, so depth d holds at most min(8^d, n)
// cells; for n = 65 536 the bound is 365 129 nodes.
func nodeBound(n int) int {
	total := 0
	for d, cells := 0, 1; d <= MaxDepth; d, cells = d+1, cells*8 {
		total += min(cells, n)
	}
	return total
}
