package octree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"bettertogether/internal/core"
)

// concPar is a genuinely concurrent ParallelFor (4 workers) used to shake
// out races in the banded phase structure; tests run under -race in CI.
func concPar(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x, y, z = x&0x3ff, y&0x3ff, z&0x3ff
		gx, gy, gz := decodeMorton(EncodeMorton(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMortonKnownValues(t *testing.T) {
	if EncodeMorton(1, 0, 0) != 1 {
		t.Error("x bit should land in slot 0")
	}
	if EncodeMorton(0, 1, 0) != 2 {
		t.Error("y bit should land in slot 1")
	}
	if EncodeMorton(0, 0, 1) != 4 {
		t.Error("z bit should land in slot 2")
	}
	if EncodeMorton(0x3ff, 0x3ff, 0x3ff) != (1<<30)-1 {
		t.Error("max coords should give all 30 bits set")
	}
}

func TestMortonLocality(t *testing.T) {
	// Morton codes of nearby cells in the same octant share prefixes:
	// the top digit is the octant index.
	code := EncodeMorton(512, 0, 0) // x in upper half
	if Digit(code, 1) != 1 {
		t.Errorf("top digit = %d, want 1 (x high bit)", Digit(code, 1))
	}
	code = EncodeMorton(512, 512, 512)
	if Digit(code, 1) != 7 {
		t.Errorf("top digit = %d, want 7", Digit(code, 1))
	}
}

func TestQuantizeBounds(t *testing.T) {
	if Quantize(-0.5) != 0 || Quantize(0) != 0 {
		t.Error("low clamp failed")
	}
	if Quantize(1.0) != 1023 || Quantize(2) != 1023 {
		t.Error("high clamp failed")
	}
	if Quantize(0.5) != 512 {
		t.Errorf("Quantize(0.5) = %d", Quantize(0.5))
	}
}

func TestRadixSortMatchesStdSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = rng.Uint32() & (1<<30 - 1)
		}
		want := append([]uint32(nil), keys...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		RadixSort(keys, NewSortScratch(n), concPar)
		for i := range keys {
			if keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortEdgeCases(t *testing.T) {
	// Empty and singleton must not crash.
	RadixSort(nil, NewSortScratch(0), core.SerialFor)
	one := []uint32{42}
	RadixSort(one, NewSortScratch(1), core.SerialFor)
	if one[0] != 42 {
		t.Error("singleton corrupted")
	}
	// All-equal keys.
	eq := make([]uint32, 100)
	for i := range eq {
		eq[i] = 7
	}
	RadixSort(eq, NewSortScratch(100), concPar)
	for _, k := range eq {
		if k != 7 {
			t.Fatal("equal keys corrupted")
		}
	}
	// Already sorted and reversed.
	n := 1000
	asc := make([]uint32, n)
	desc := make([]uint32, n)
	for i := 0; i < n; i++ {
		asc[i] = uint32(i)
		desc[i] = uint32(n - i)
	}
	RadixSort(asc, NewSortScratch(n), concPar)
	RadixSort(desc, NewSortScratch(n), concPar)
	for i := 1; i < n; i++ {
		if asc[i] < asc[i-1] || desc[i] < desc[i-1] {
			t.Fatal("pre-ordered inputs mis-sorted")
		}
	}
}

func TestUniqueBasic(t *testing.T) {
	keys := []uint32{1, 1, 2, 3, 3, 3, 9}
	scratch := make([]uint32, len(keys))
	n := Unique(keys, scratch, concPar)
	if n != 4 {
		t.Fatalf("unique count = %d, want 4", n)
	}
	want := []uint32{1, 2, 3, 9}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("unique = %v, want %v", keys[:n], want)
		}
	}
}

func TestUniqueProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(50)) // force many duplicates
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		// Model: count distinct values.
		distinct := map[uint32]bool{}
		for _, k := range keys {
			distinct[k] = true
		}
		scratch := make([]uint32, n)
		got := Unique(keys, scratch, concPar)
		if got != len(distinct) {
			return false
		}
		for i := 1; i < got; i++ {
			if keys[i] <= keys[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	if Unique(nil, nil, core.SerialFor) != 0 {
		t.Error("empty unique should be 0")
	}
}

// buildTestTree sorts, dedups and builds a radix tree over random codes.
func buildTestTree(t *testing.T, seed int64, n int) (*RadixTree, []uint32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = rng.Uint32() & (1<<30 - 1)
	}
	RadixSort(codes, NewSortScratch(n), concPar)
	u := Unique(codes, make([]uint32, n), concPar)
	if u < 2 {
		t.Skip("degenerate sample")
	}
	tree := NewRadixTree(u)
	tree.Build(codes[:u], concPar)
	return tree, codes[:u]
}

func TestRadixTreeStructure(t *testing.T) {
	tree, codes := buildTestTree(t, 1, 2000)
	n := tree.N
	// Every non-root node must have a parent consistent with the child
	// links, and each internal node's children must point back.
	childCount := make([]int, 2*n-1)
	for i := 0; i < n-1; i++ {
		for _, ch := range []int32{tree.Left[i], tree.Right[i]} {
			if ch < 0 || int(ch) >= 2*n-1 {
				t.Fatalf("node %d child %d out of range", i, ch)
			}
			if tree.Parent[ch] != int32(i) {
				t.Fatalf("child %d of %d has parent %d", ch, i, tree.Parent[ch])
			}
			childCount[ch]++
		}
	}
	// Every node except the root is referenced exactly once.
	if childCount[0] != 0 {
		t.Error("root referenced as a child")
	}
	for v := 1; v < 2*n-1; v++ {
		if childCount[v] != 1 {
			t.Errorf("node %d referenced %d times", v, childCount[v])
		}
	}
	// Leaves covered by each internal node form the full contiguous
	// range: check via recursive span computation.
	var span func(v int32) (int, int)
	span = func(v int32) (int, int) {
		if tree.IsLeaf(v) {
			k := tree.LeafIndex(v)
			return k, k
		}
		l1, h1 := span(tree.Left[v])
		l2, h2 := span(tree.Right[v])
		if h1+1 != l2 {
			t.Fatalf("node %d: children spans [%d,%d] and [%d,%d] not adjacent", v, l1, h1, l2, h2)
		}
		return l1, h2
	}
	lo, hi := span(0)
	if lo != 0 || hi != n-1 {
		t.Errorf("root spans [%d,%d], want [0,%d]", lo, hi, n-1)
	}
	_ = codes
}

func TestRadixTreePrefixLengths(t *testing.T) {
	tree, codes := buildTestTree(t, 2, 1000)
	// Each internal node's prefix length must equal the common prefix of
	// its span's first and last codes (in Morton bits), and children must
	// have strictly longer prefixes than parents.
	var span func(v int32) (int, int)
	span = func(v int32) (int, int) {
		if tree.IsLeaf(v) {
			k := tree.LeafIndex(v)
			return k, k
		}
		l1, _ := span(tree.Left[v])
		_, h2 := span(tree.Right[v])
		return l1, h2
	}
	for i := 0; i < tree.N-1; i++ {
		lo, hi := span(int32(i))
		want := delta(codes, lo, hi) - 2
		if want < 0 {
			want = 0
		}
		if int(tree.PrefixLen[i]) != want {
			t.Fatalf("node %d prefix = %d, want %d", i, tree.PrefixLen[i], want)
		}
		if p := tree.Parent[i]; p >= 0 && tree.PrefixLen[i] <= tree.PrefixLen[p] {
			t.Fatalf("node %d prefix %d not longer than parent's %d", i, tree.PrefixLen[i], tree.PrefixLen[p])
		}
	}
}

func TestRadixTreeTwoCodes(t *testing.T) {
	codes := []uint32{0, 1<<30 - 1}
	tree := NewRadixTree(2)
	tree.Build(codes, core.SerialFor)
	if tree.N != 2 || tree.NumNodes() != 3 {
		t.Fatal("two-code tree malformed")
	}
	if !tree.IsLeaf(tree.Left[0]) || !tree.IsLeaf(tree.Right[0]) {
		t.Error("root of 2-code tree should have leaf children")
	}
	if tree.PrefixLen[0] != 0 {
		t.Errorf("fully divergent codes share prefix %d", tree.PrefixLen[0])
	}
}

func TestRadixTreeBuildPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRadixTree(2).Build([]uint32{1}, core.SerialFor)
}

func TestCountEdgesAndScan(t *testing.T) {
	tree, _ := buildTestTree(t, 3, 500)
	counts := make([]int32, tree.NumNodes())
	CountEdges(tree, counts, concPar)
	// Root contributes at least the depth-0 node; leaves at least one.
	if counts[0] < 1 {
		t.Error("root count < 1")
	}
	for k := 0; k < tree.N; k++ {
		if counts[tree.LeafID(k)] < 1 {
			t.Errorf("leaf %d count < 1", k)
		}
	}
	for v, c := range counts {
		if c < 0 {
			t.Errorf("node %d negative count %d", v, c)
		}
	}
	// Sum along any root-to-leaf path equals depth+1 nodes: root chain
	// covers depth 0..L0/3 and each edge continues contiguously, so the
	// total path sum must be exactly MaxDepth+1 for every leaf.
	for k := 0; k < tree.N; k++ {
		sum := int32(0)
		for v := tree.LeafID(k); v >= 0; v = tree.Parent[v] {
			sum += counts[v]
		}
		if sum != MaxDepth+1 {
			t.Fatalf("leaf %d path node sum = %d, want %d", k, sum, MaxDepth+1)
		}
	}
	offsets := make([]int32, tree.NumNodes())
	total := ExclusiveScan(counts, offsets, concPar)
	var want int32
	for v, c := range counts {
		if offsets[v] != want {
			t.Fatalf("offset %d = %d, want %d", v, offsets[v], want)
		}
		want += c
	}
	if total != want {
		t.Fatalf("scan total = %d, want %d", total, want)
	}
}

func TestExclusiveScanSmall(t *testing.T) {
	counts := []int32{3, 0, 2, 5}
	offsets := make([]int32, 4)
	total := ExclusiveScan(counts, offsets, concPar)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int32{0, 3, 3, 5}
	for i := range want {
		if offsets[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", offsets, want)
		}
	}
	if ExclusiveScan(nil, nil, core.SerialFor) != 0 {
		t.Error("empty scan total should be 0")
	}
}

// validateOctree checks the full structural contract of a built octree.
func validateOctree(t *testing.T, oct Octree, codes []uint32) {
	t.Helper()
	// Masks must match children.
	for i, nd := range oct.Nodes {
		var m uint8
		for d, ch := range nd.Children {
			if ch >= 0 {
				m |= 1 << uint(d)
				if int(ch) >= len(oct.Nodes) {
					t.Fatalf("node %d child out of range", i)
				}
			}
		}
		if m != nd.Mask {
			t.Fatalf("node %d mask %08b != derived %08b", i, nd.Mask, m)
		}
	}
	// Every code must be reachable from the root by following its
	// digits, terminating at a leaf holding its index.
	for k, code := range codes {
		v := oct.Root
		depth := 0
		for oct.Nodes[v].Leaf < 0 {
			depth++
			if depth > MaxDepth {
				t.Fatalf("code %d: walked past max depth", k)
			}
			next := oct.Nodes[v].Children[Digit(code, depth)]
			if next < 0 {
				t.Fatalf("code %d: no child at depth %d", k, depth)
			}
			v = next
		}
		if int(oct.Nodes[v].Leaf) != k {
			t.Fatalf("code %d: reached leaf %d", k, oct.Nodes[v].Leaf)
		}
	}
	// Node count: every node is reachable from the root exactly once
	// (tree property).
	seen := make([]bool, len(oct.Nodes))
	var walk func(v int32)
	var reached int
	walk = func(v int32) {
		if seen[v] {
			t.Fatalf("node %d reached twice", v)
		}
		seen[v] = true
		reached++
		for _, ch := range oct.Nodes[v].Children {
			if ch >= 0 {
				walk(ch)
			}
		}
	}
	walk(oct.Root)
	if reached != len(oct.Nodes) {
		t.Fatalf("reached %d of %d nodes", reached, len(oct.Nodes))
	}
}

func TestBuildOctreeFull(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tree, codes := buildTestTree(t, seed, 1500)
		counts := make([]int32, tree.NumNodes())
		CountEdges(tree, counts, concPar)
		offsets := make([]int32, tree.NumNodes())
		total := ExclusiveScan(counts, offsets, concPar)
		nodes := make([]OctNode, total)
		oct := BuildOctree(tree, codes, counts, offsets, nodes, concPar)
		if len(oct.Nodes) != int(total) {
			t.Fatalf("seed %d: built %d nodes, scan said %d", seed, len(oct.Nodes), total)
		}
		validateOctree(t, oct, codes)
	}
}

func TestBuildOctreeClusteredDuplicates(t *testing.T) {
	// Clustered input stresses deep shared prefixes (long chains).
	n := 4000
	pts := make([]float32, 3*n)
	ClusterGen{Clusters: 3, Sigma: 0.001}.Fill(pts, n, 1)
	codes := make([]uint32, n)
	for i := 0; i < n; i++ {
		codes[i] = EncodePoint(pts[3*i], pts[3*i+1], pts[3*i+2])
	}
	RadixSort(codes, NewSortScratch(n), concPar)
	u := Unique(codes, make([]uint32, n), concPar)
	if u < 2 {
		t.Skip("all points landed in one cell")
	}
	tree := NewRadixTree(u)
	tree.Build(codes[:u], concPar)
	counts := make([]int32, tree.NumNodes())
	CountEdges(tree, counts, concPar)
	offsets := make([]int32, tree.NumNodes())
	total := ExclusiveScan(counts, offsets, concPar)
	oct := BuildOctree(tree, codes[:u], counts, offsets, make([]OctNode, total), concPar)
	validateOctree(t, oct, codes[:u])
}

func TestBuildSingleCodeOctree(t *testing.T) {
	code := EncodeMorton(5, 9, 1023)
	nodes := make([]OctNode, MaxDepth+1)
	oct := BuildSingleCodeOctree(code, nodes)
	validateOctree(t, oct, []uint32{code})
	if len(oct.Nodes) != MaxDepth+1 {
		t.Errorf("chain length = %d", len(oct.Nodes))
	}
}

func TestGenerators(t *testing.T) {
	for _, g := range []Generator{UniformGen{}, ClusterGen{}, SurfaceGen{}} {
		pts := make([]float32, 3*100)
		g.Fill(pts, 100, 3)
		for i, v := range pts {
			if v < 0 || v >= 1 {
				t.Errorf("%s: point coord %d = %v outside [0,1)", g.Name(), i, v)
			}
		}
		// Determinism per seq.
		pts2 := make([]float32, 3*100)
		g.Fill(pts2, 100, 3)
		for i := range pts {
			if pts[i] != pts2[i] {
				t.Errorf("%s: generation not deterministic", g.Name())
				break
			}
		}
	}
}

func TestApplicationEndToEnd(t *testing.T) {
	app := NewApplication(2048, UniformGen{})
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(app.Stages) != 7 {
		t.Fatalf("stages = %d", len(app.Stages))
	}
	to := app.NewTask()
	for _, s := range app.Stages {
		s.CPU(to, concPar)
	}
	task := to.Payload.(*Task)
	if task.NumUnique == 0 {
		t.Fatal("no unique codes")
	}
	validateOctree(t, task.Result, task.Codes.Data[:task.NumUnique])
	// Recycle and run again with a different input.
	to.Reset(1)
	for _, s := range app.Stages {
		s.GPU(to, concPar)
	}
	validateOctree(t, task.Result, task.Codes.Data[:task.NumUnique])
}

func TestApplicationDefaults(t *testing.T) {
	app := NewApplication(0, nil)
	if app.Name != "octree-uniform" {
		t.Errorf("name = %q", app.Name)
	}
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostsSane(t *testing.T) {
	for i, c := range costs(1000) {
		if err := c.Validate(); err != nil {
			t.Errorf("stage %d: %v", i, err)
		}
		if c.FLOPs <= 0 || c.Bytes <= 0 {
			t.Errorf("stage %d: zero work", i)
		}
	}
}

func BenchmarkOctreePipelineSerial(b *testing.B) {
	app := NewApplication(16384, UniformGen{})
	to := app.NewTask()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to.Reset(i)
		for _, s := range app.Stages {
			s.CPU(to, core.SerialFor)
		}
	}
}

func TestTaskGraphLinearizesToCanonicalOrder(t *testing.T) {
	stages, err := newTaskGraph(2048, UniformGen{}).Linearize()
	if err != nil {
		t.Fatal(err)
	}
	app := NewApplication(2048, UniformGen{})
	app.Stages = stages
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	canonical := NewApplication(2048, UniformGen{})
	for i, s := range app.Stages {
		if s.Name != canonical.Stages[i].Name {
			t.Fatalf("linearized order %v diverges at %d", app.StageNames(), i)
		}
	}
	// The linearized app must still compute a valid octree.
	to := app.NewTask()
	for _, s := range app.Stages {
		s.CPU(to, concPar)
	}
	task := to.Payload.(*Task)
	validateOctree(t, task.Result, task.Codes.Data[:task.NumUnique])
}

func TestTaskGraphEdgesRespectDataflow(t *testing.T) {
	g := newTaskGraph(1024, UniformGen{})
	if len(g.Nodes) != 7 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
	// The paper's fan-in: build-octree (node 6) has three predecessors.
	preds := 0
	for _, e := range g.Edges {
		if e[1] == 6 {
			preds++
		}
	}
	if preds != 3 {
		t.Errorf("build-octree has %d predecessors, want 3", preds)
	}
	order, err := g.Linearize()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, s := range order {
		pos[s.Name] = i
	}
	for _, e := range g.Edges {
		from, to := g.Nodes[e[0]].Name, g.Nodes[e[1]].Name
		if pos[from] >= pos[to] {
			t.Errorf("edge %s->%s violated by linearization", from, to)
		}
	}
}

// newTaskGraph returns the octree application's true dependency
// structure as an acyclic task graph. The paper (Sec. 3.1, "Task
// Graph") calls out exactly this workload: the final stage consumes the
// outputs of several earlier stages — the unique codes, the radix tree,
// and the scanned offsets — not just its immediate predecessor.
// BetterTogether supports such applications by linearizing the graph
// with a topological sort (core.TaskGraph.Linearize).
func newTaskGraph(n int, gen Generator) *core.TaskGraph {
	app := NewApplication(n, gen)
	g := &core.TaskGraph{Nodes: app.Stages}
	// Chain dependencies along the natural dataflow...
	g.AddEdge(0, 1) // morton     -> sort
	g.AddEdge(1, 2) // sort       -> unique
	g.AddEdge(2, 3) // unique     -> radix tree
	g.AddEdge(3, 4) // radix tree -> edge count
	g.AddEdge(4, 5) // edge count -> prefix sum
	// ...plus the fan-in the paper highlights: building the octree needs
	// the unique codes, the tree structure, and the offsets.
	g.AddEdge(2, 6)
	g.AddEdge(3, 6)
	g.AddEdge(5, 6)
	return g
}

// decodeMorton splits a Morton code back into cell coordinates.
func decodeMorton(code uint32) (x, y, z uint32) {
	return compact3(code), compact3(code >> 1), compact3(code >> 2)
}

// compact3 is the inverse of spread3: it extracts every third bit.
func compact3(v uint32) uint32 {
	v &= 0x09249249
	v = (v | v>>2) & 0x030c30c3
	v = (v | v>>4) & 0x0300f00f
	v = (v | v>>8) & 0x030000ff
	v = (v | v>>16) & 0x000003ff
	return v
}

// TestNodeBound checks the arena bound at the default frame size and
// that codes spread over every depth-3 cell reach it exactly.
func TestNodeBound(t *testing.T) {
	if got := nodeBound(DefaultPoints); got != 365129 {
		t.Fatalf("nodeBound(%d) = %d, want 365129", DefaultPoints, got)
	}
	const n = 512
	codes := make([]uint32, n)
	for i := range codes {
		codes[i] = uint32(i) << (MortonBits - 9)
	}
	tree := NewRadixTree(n)
	tree.Build(codes, core.SerialFor)
	counts := make([]int32, tree.NumNodes())
	offsets := make([]int32, tree.NumNodes())
	CountEdges(tree, counts, core.SerialFor)
	if total := ExclusiveScan(counts, offsets, core.SerialFor); int(total) != nodeBound(n) {
		t.Fatalf("%d codes on distinct depth-3 cells build %d nodes, want the bound %d", n, total, nodeBound(n))
	}
}
