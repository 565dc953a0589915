package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func simpleProblem() *Problem {
	// 3 stages, 2 classes.
	return &Problem{N: 3, M: 2, Time: [][]float64{
		{1, 4},
		{2, 1},
		{3, 1},
	}}
}

// randomProblem draws an n×m instance with latencies rng.Float64()*scale.
func randomProblem(rng *rand.Rand, n, m int, scale float64) *Problem {
	p := &Problem{N: n, M: m, Time: make([][]float64, n)}
	for i := range p.Time {
		p.Time[i] = make([]float64, m)
		for j := range p.Time[i] {
			p.Time[i][j] = rng.Float64() * scale
		}
	}
	return p
}

// oracle is the brute-force reference for the schedule space: it walks
// all M^N assignment vectors and keeps those where no class reopens (C1
// holds by the vector's shape, C2 by that check). Chunk runtimes are
// summed left to right, TMax and TMin folded in chunk order.
func oracle(p *Problem) []Solution {
	var out []Solution
	assign := make([]int, p.N)
	for {
		seen := map[int]bool{}
		ok := true
		for i, c := range assign {
			if i > 0 && assign[i-1] == c {
				continue
			}
			if seen[c] {
				ok = false
				break
			}
			seen[c] = true
		}
		if ok {
			var times []float64
			for i := 0; i < p.N; {
				j, sum := i+1, p.Time[i][assign[i]]
				for ; j < p.N && assign[j] == assign[i]; j++ {
					sum += p.Time[j][assign[i]]
				}
				times = append(times, sum)
				i = j
			}
			tmax, tmin := times[0], times[0]
			for _, t := range times[1:] {
				tmax = math.Max(tmax, t)
				tmin = math.Min(tmin, t)
			}
			out = append(out, Solution{Assign: append([]int(nil), assign...), ChunkTimes: times, TMax: tmax, TMin: tmin})
		}
		// Next vector, odometer order.
		i := p.N - 1
		for ; i >= 0; i-- {
			if assign[i]++; assign[i] < p.M {
				break
			}
			assign[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// oracleMinGap is the smallest comparable gapness over the oracle space.
func oracleMinGap(p *Problem) (float64, bool) {
	best, ok := math.Inf(1), false
	for _, s := range oracle(p) {
		if g := s.Gap(); g < best {
			best, ok = g, true
		}
	}
	return best, ok
}

// oracleTopK filters the oracle space, sorts it by (TMax, Key) and
// truncates it to k; it also returns the stats of a pass that scores
// every schedule, which checkStats holds TopK's bounded pass to.
func oracleTopK(p *Problem, k int, filter FilterFunc) ([]Solution, SearchStats) {
	all := oracle(p)
	stats := SearchStats{Visited: len(all)}
	if k <= 0 {
		return nil, SearchStats{}
	}
	var pool []Solution
	for _, s := range all {
		if filter == nil || filter(s) {
			pool = append(pool, s)
		} else {
			stats.Pruned++
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].TMax != pool[b].TMax {
			return pool[a].TMax < pool[b].TMax
		}
		return Key(pool[a].Assign) < Key(pool[b].Assign)
	})
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool, stats
}

// checkStats holds a bounded query's counters to the full pass's: every
// schedule is either scored or bounded, and the filter sees a subset of
// what it sees in the full pass.
func checkStats(t *testing.T, label string, got, full SearchStats) {
	t.Helper()
	if got.Visited+got.Bounded != full.Visited || got.Pruned > full.Pruned || got.Pruned > got.Visited || got.Bounded < 0 {
		t.Fatalf("%s: stats %+v, want Visited+Bounded = %d and Pruned <= %d", label, got, full.Visited, full.Pruned)
	}
}

// sameSolutions compares two ranked lists bit for bit.
func sameSolutions(t *testing.T, label string, got, want []Solution) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d solutions, want %d", label, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range want {
		g, w := got[i], want[i]
		if Key(g.Assign) != Key(w.Assign) {
			t.Fatalf("%s: rank %d = %s, want %s", label, i, Key(g.Assign), Key(w.Assign))
		}
		if bits(g.TMax) != bits(w.TMax) || bits(g.TMin) != bits(w.TMin) {
			t.Fatalf("%s: rank %d TMax/TMin %v/%v, want %v/%v", label, i, g.TMax, g.TMin, w.TMax, w.TMin)
		}
		if len(g.ChunkTimes) != len(w.ChunkTimes) {
			t.Fatalf("%s: rank %d chunk times %v, want %v", label, i, g.ChunkTimes, w.ChunkTimes)
		}
		for j := range w.ChunkTimes {
			if bits(g.ChunkTimes[j]) != bits(w.ChunkTimes[j]) {
				t.Fatalf("%s: rank %d chunk times %v, want %v", label, i, g.ChunkTimes, w.ChunkTimes)
			}
		}
	}
}

// gapFilter is sched's utilization filter at the given slack.
func gapFilter(minGap, slack float64) FilterFunc {
	cut := minGap + 1e-15
	return func(s Solution) bool { return s.Gap() <= cut || s.Gap() <= slack*s.TMax }
}

// scored collects every schedule the pass scores, through a filter that
// copies each one and rejects it.
func scored(p *Problem) []Solution {
	var out []Solution
	TopK(p, 1, func(s Solution) bool {
		out = append(out, Solution{
			Assign:     append([]int(nil), s.Assign...),
			ChunkTimes: append([]float64(nil), s.ChunkTimes...),
			TMax:       s.TMax, TMin: s.TMin,
		})
		return false
	}, nil)
	return out
}

// bruteCount counts contiguous assignments by direct construction:
// compositions of N into k parts × ordered injections of classes.
func bruteCount(n, m int) int {
	// comps(n, k) = C(n-1, k-1); perms = m!/(m-k)!
	binom := func(a, b int) int {
		if b < 0 || b > a {
			return 0
		}
		r := 1
		for i := 0; i < b; i++ {
			r = r * (a - i) / (i + 1)
		}
		return r
	}
	total := 0
	perm := 1
	for k := 1; k <= m && k <= n; k++ {
		perm *= m - k + 1
		total += binom(n-1, k-1) * perm
	}
	return total
}

func TestEnumerateCountsMatchCombinatorics(t *testing.T) {
	for _, c := range []struct{ n, m int }{{3, 2}, {4, 3}, {9, 4}, {7, 4}, {5, 1}, {2, 5}, {12, 3}} {
		p := &Problem{N: c.n, M: c.m, Time: make([][]float64, c.n)}
		for i := range p.Time {
			p.Time[i] = make([]float64, c.m)
			for j := range p.Time[i] {
				p.Time[i][j] = 1
			}
		}
		var stats SearchStats
		TopK(p, 1, nil, &stats)
		if want := bruteCount(c.n, c.m); stats.Visited+stats.Bounded != want {
			t.Errorf("N=%d M=%d: scored %d + bounded %d, combinatorics says %d", c.n, c.m, stats.Visited, stats.Bounded, want)
		}
		visited := 0
		Each(p, func(*Solution) bool { visited++; return true })
		if want := bruteCount(c.n, c.m); visited != want {
			t.Errorf("N=%d M=%d: Each visited %d, combinatorics says %d", c.n, c.m, visited, want)
		}
	}
	if got := bruteCount(9, 4); got != 2116 {
		t.Errorf("paper space N=9 M=4 has %d schedules, want 2116", got)
	}
}

// The pass scores exactly the oracle's space: every schedule satisfies
// C2, none is scored twice, and none is missed.
func TestEnumerateContiguityInvariant(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(1)), 6, 3, 1)
	got := scored(p)
	want := map[string]bool{}
	for _, s := range oracle(p) {
		want[Key(s.Assign)] = true
	}
	for _, s := range got {
		seen := map[int]bool{}
		for i, c := range s.Assign {
			if i == 0 || s.Assign[i-1] != c {
				if seen[c] {
					t.Fatalf("class %d reopens in %v", c, s.Assign)
				}
				seen[c] = true
			}
		}
		if !want[Key(s.Assign)] {
			t.Fatalf("%v scored twice or outside the space", s.Assign)
		}
		delete(want, Key(s.Assign))
	}
	if len(want) != 0 {
		t.Fatalf("%d schedules never scored", len(want))
	}
}

// The pass stops as soon as visit returns false, the exit MinGap takes at
// the first zero gapness.
func TestEnumerateEarlyStop(t *testing.T) {
	count := 0
	pass(simpleProblem(), nil, func(*Solution) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("visited %d, want 2", count)
	}
}

// Each walks the space TopK scores, in the same order, and refuses an
// invalid problem before visiting anything.
func TestEachMatchesScoredOrder(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 6, 3, 1)
	want := scored(p)
	i := 0
	if err := Each(p, func(s *Solution) bool {
		if i >= len(want) || Key(s.Assign) != Key(want[i].Assign) || s.TMax != want[i].TMax || s.TMin != want[i].TMin {
			t.Fatalf("visit %d is %v, TopK scored %v there", i, s.Assign, want[min(i, len(want)-1)].Assign)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("Each visited %d schedules, TopK scored %d", i, len(want))
	}
	if err := Each(&Problem{N: 2, M: 0}, func(*Solution) bool {
		t.Fatal("visited a schedule of an invalid problem")
		return false
	}); err == nil {
		t.Fatal("invalid problem accepted")
	}
}

// C5 holds by construction: a top-K pool never repeats an assignment.
func TestTopKDistinctByConstruction(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(2)), 7, 4, 1)
	for i := range p.Time {
		p.Time[i][1] = p.Time[i][0] // identical classes: many exact ties
	}
	top := TopK(p, 200, nil, nil)
	if len(top) != 200 {
		t.Fatalf("got %d solutions", len(top))
	}
	seen := map[string]bool{}
	for _, s := range top {
		if seen[Key(s.Assign)] {
			t.Fatalf("assignment %s returned twice", Key(s.Assign))
		}
		seen[Key(s.Assign)] = true
	}
}

func TestChunkTimesConsistent(t *testing.T) {
	p := simpleProblem()
	for _, s := range append(scored(p), TopK(p, 100, nil, nil)...) {
		// Recompute chunk times from the assignment.
		var want []float64
		for i := 0; i < p.N; {
			j, sum := i, 0.0
			for j < p.N && s.Assign[j] == s.Assign[i] {
				sum += p.Time[j][s.Assign[i]]
				j++
			}
			want = append(want, sum)
			i = j
		}
		if len(want) != len(s.ChunkTimes) {
			t.Fatalf("chunk count mismatch: %v vs %v", s.ChunkTimes, want)
		}
		tmax, tmin := want[0], want[0]
		for i := range want {
			if math.Abs(want[i]-s.ChunkTimes[i]) > 1e-12 {
				t.Fatalf("chunk times %v, want %v", s.ChunkTimes, want)
			}
			tmax = math.Max(tmax, want[i])
			tmin = math.Min(tmin, want[i])
		}
		if s.TMax != tmax || s.TMin != tmin {
			t.Fatalf("TMax/TMin inconsistent")
		}
	}
}

func TestMinimizeLatency(t *testing.T) {
	p := simpleProblem()
	top := TopK(p, 1, nil, nil)
	if len(top) != 1 {
		t.Fatalf("got %d solutions", len(top))
	}
	best := top[0]
	for _, s := range oracle(p) {
		if s.TMax < best.TMax {
			t.Fatalf("found better TMax %v < %v (%v)", s.TMax, best.TMax, s.Assign)
		}
	}
	// Known optimum: stage0 on c0 (1), stages 1-2 on c1 (2) → TMax 2.
	if best.TMax != 2 {
		t.Errorf("best TMax = %v, want 2", best.TMax)
	}
}

func TestMinimizeGapness(t *testing.T) {
	p := simpleProblem()
	gap, ok := MinGap(p)
	if !ok {
		t.Fatal("no solution")
	}
	for _, s := range oracle(p) {
		if s.Gap() < gap {
			t.Fatalf("found better gap %v < %v (%v)", s.Gap(), gap, s.Assign)
		}
	}
	// Single-chunk schedules have gap 0, so the optimum is 0.
	if gap != 0 {
		t.Errorf("gap = %v, want 0", gap)
	}
}

func TestMinGapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 1+rng.Intn(6), 1+rng.Intn(4), 10)
		got, gotOK := MinGap(p)
		want, wantOK := oracleMinGap(p)
		if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: MinGap = %v, %v; oracle %v, %v", trial, got, gotOK, want, wantOK)
		}
	}
}

func TestTopKByLatency(t *testing.T) {
	p := simpleProblem()
	all := oracle(p)
	for k := 1; k <= len(all)+2; k++ {
		top := TopK(p, k, nil, nil)
		wantLen := min(k, len(all))
		if len(top) != wantLen {
			t.Fatalf("k=%d: got %d", k, len(top))
		}
		for i := 1; i < len(top); i++ {
			if top[i].TMax < top[i-1].TMax {
				t.Fatalf("k=%d: not ascending", k)
			}
		}
		// Optimality: the k-th TMax must not exceed any excluded one.
		if len(top) == k {
			excluded := map[string]bool{}
			for _, s := range top {
				excluded[Key(s.Assign)] = true
			}
			for _, s := range all {
				if !excluded[Key(s.Assign)] && s.TMax < top[len(top)-1].TMax {
					t.Fatalf("k=%d: missed better solution %v (%v < %v)",
						k, s.Assign, s.TMax, top[len(top)-1].TMax)
				}
			}
		}
	}
}

func TestTopKZeroK(t *testing.T) {
	p := simpleProblem()
	stats := SearchStats{Visited: 7, Pruned: 3}
	for _, k := range []int{0, -1} {
		if got := TopK(p, k, nil, &stats); got != nil {
			t.Errorf("k=%d returned %d solutions", k, len(got))
		}
		if stats != (SearchStats{}) {
			t.Errorf("k=%d left stats %+v, want them reset", k, stats)
		}
	}
}

func TestTopKDeterministic(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 9, 4, 1)
	a := TopK(p, 20, nil, nil)
	b := TopK(p, 20, nil, nil)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	sameSolutions(t, "rerun", b, a)
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{N: 0, M: 2},
		{N: 2, M: 0},
		{N: 2, M: 31},
		{N: 2, M: 2, Time: [][]float64{{1, 2}}},
		{N: 1, M: 2, Time: [][]float64{{1}}},
		{N: 1, M: 1, Time: [][]float64{{-1}}},
		{N: 1, M: 1, Time: [][]float64{{math.NaN()}}},
		{N: 1, M: 1, Time: [][]float64{{math.Inf(1)}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid problem accepted", i)
		}
		if _, ok := MinGap(p); ok {
			t.Errorf("case %d: MinGap solved an invalid problem", i)
		}
		stats := SearchStats{Visited: 1}
		if got := TopK(p, 5, nil, &stats); got != nil || stats != (SearchStats{}) {
			t.Errorf("case %d: TopK returned %d solutions, stats %+v", i, len(got), stats)
		}
	}
}

func TestKey(t *testing.T) {
	if Key([]int{1, 2, 10}) != "1,2,10" {
		t.Errorf("Key = %q", Key([]int{1, 2, 10}))
	}
	if Key(nil) != "" {
		t.Error("empty key")
	}
}

// keyLess orders assignments exactly as their Key strings do, including
// past ten classes, where text order and integer order part ("10" < "2").
func TestKeyLessMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(4)
		a, b := make([]int, n), make([]int, n)
		for i := range a {
			a[i], b[i] = rng.Intn(30), rng.Intn(30)
			if rng.Intn(2) == 0 {
				b[i] = a[i]
			}
		}
		if got, want := keyLess(a, b), Key(a) < Key(b); got != want {
			t.Fatalf("keyLess(%v, %v) = %v, Key order says %v", a, b, got, want)
		}
	}
}

// Property: for random tables, the best TopK schedule has the oracle's
// smallest TMax.
func TestMinimizeLatencyAgainstExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 2+rng.Intn(6), 1+rng.Intn(4), 10)
		top := TopK(p, 1, nil, nil)
		exhaustiveBest := math.Inf(1)
		for _, s := range oracle(p) {
			exhaustiveBest = math.Min(exhaustiveBest, s.TMax)
		}
		return len(top) == 1 && top[0].TMax == exhaustiveBest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TopK equals the oracle's filter-sort-truncate bit for bit, with its
// stats, for random problems, pool sizes and gapness filters.
func TestTopKFilteredMatchesMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 2+rng.Intn(6), 1+rng.Intn(4), 10)
		// The gapness filter at a random slack, as sched.Candidates uses;
		// every third trial runs unfiltered.
		var filter FilterFunc
		if gap, ok := MinGap(p); ok && trial%3 != 0 {
			filter = gapFilter(gap, rng.Float64())
		}
		for _, k := range []int{1, 2, 5, 20, 1 << 20} {
			var stats SearchStats
			got := TopK(p, k, filter, &stats)
			want, wantStats := oracleTopK(p, k, filter)
			label := fmt.Sprintf("trial %d k=%d", trial, k)
			sameSolutions(t, label, got, want)
			checkStats(t, label, stats, wantStats)
		}
	}
}

// Exact TMax ties rank by Key text: integer latencies make ties common,
// and twelve classes make text order differ from integer order.
func TestTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, shape := range []struct{ n, m int }{{1, 3}, {4, 4}, {6, 4}, {3, 12}, {4, 11}} {
		p := &Problem{N: shape.n, M: shape.m, Time: make([][]float64, shape.n)}
		for i := range p.Time {
			p.Time[i] = make([]float64, shape.m)
			for j := range p.Time[i] {
				p.Time[i][j] = float64(rng.Intn(4))
			}
		}
		for _, k := range []int{1, 7, 50, 1 << 20} {
			want, _ := oracleTopK(p, k, nil)
			sameSolutions(t, fmt.Sprintf("N=%d M=%d k=%d", shape.n, shape.m, k), TopK(p, k, nil, nil), want)
		}
	}
}

// The bound is strict: schedules whose TMax equals the worst
// incumbent's are still scored, so Key order settles the ties. Latencies
// of 0 and 1 on up to twelve classes make most of the space tie; k = 1
// keeps the bound tight from the first schedule on.
func TestTopKBoundKeepsTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []struct{ n, m int }{{5, 4}, {6, 4}, {4, 12}, {3, 11}, {6, 5}} {
		p := &Problem{N: shape.n, M: shape.m, Time: make([][]float64, shape.n)}
		for i := range p.Time {
			p.Time[i] = make([]float64, shape.m)
			for j := range p.Time[i] {
				p.Time[i][j] = float64(rng.Intn(2))
			}
		}
		for _, k := range []int{1, 2, 7, 50} {
			for _, slack := range []float64{-1, 0, 0.5} {
				var filter FilterFunc
				if slack >= 0 {
					gap, _ := MinGap(p)
					filter = gapFilter(gap, slack)
				}
				label := fmt.Sprintf("N=%d M=%d k=%d slack=%v", shape.n, shape.m, k, slack)
				var stats SearchStats
				got := TopK(p, k, filter, &stats)
				want, wantStats := oracleTopK(p, k, filter)
				sameSolutions(t, label, got, want)
				checkStats(t, label, stats, wantStats)
				ties := 0
				for _, s := range oracle(p) {
					if len(want) > 0 && s.TMax == want[len(want)-1].TMax {
						ties++
					}
				}
				if ties <= len(want) {
					t.Fatalf("%s: only %d schedules at the k-th TMax; the case does not test ties", label, ties)
				}
			}
		}
	}
}

// The bound skips work on the paper's space: a top-20 query with sched's
// utilization filter scores a fraction of the 2 116 schedules.
func TestTopKBoundSkipsPaperSpace(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(1)), 9, 4, 1)
	var stats SearchStats
	TopK(p, 20, gapFilter(0, 0.4), &stats)
	if stats.Visited+stats.Bounded != 2116 || stats.Bounded == 0 {
		t.Fatalf("stats %+v, want a non-zero Bounded summing with Visited to 2116", stats)
	}
}

// Bounded saturates instead of wrapping: at N = M = 21 the space holds
// over 21! schedules, past math.MaxInt, and a tight bound skips most of
// them from the first chunk on.
func TestSaturatingCounts(t *testing.T) {
	if got := satAdd(math.MaxInt-1, 5); got != math.MaxInt {
		t.Errorf("satAdd near MaxInt = %d", got)
	}
	if got := satAdd(3, 4); got != 7 {
		t.Errorf("satAdd(3, 4) = %d", got)
	}
	fact := 1
	for i := 2; i <= 21; i++ {
		fact = satMul(fact, i)
	}
	if fact != math.MaxInt {
		t.Errorf("21! saturated to %d, want MaxInt", fact)
	}
	if got := satMul(math.MaxInt, 0); got != 0 {
		t.Errorf("satMul(MaxInt, 0) = %d", got)
	}
}

func TestTopKFilteredRejectAll(t *testing.T) {
	p := simpleProblem()
	var stats SearchStats
	if got := TopK(p, 5, func(Solution) bool { return false }, &stats); got != nil {
		t.Fatalf("reject-all filter returned %d solutions", len(got))
	}
	if stats.Visited != bruteCount(3, 2) || stats.Pruned != stats.Visited {
		t.Errorf("stats %+v, want every one of %d schedules pruned", stats, bruteCount(3, 2))
	}
}

// The pass allocates nothing per schedule: a query costs the same
// allocations on the paper's 2 116-schedule space as on a 76-schedule
// one.
func TestPassAllocsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small, paper := randomProblem(rng, 4, 4, 1), randomProblem(rng, 9, 4, 1)
	filter := gapFilter(0, 0.4)
	allocs := func(p *Problem) (gap, top float64) {
		gap = testing.AllocsPerRun(20, func() { MinGap(p) })
		top = testing.AllocsPerRun(20, func() { TopK(p, 20, filter, nil) })
		return gap, top
	}
	sg, st := allocs(small)
	pg, pt := allocs(paper)
	if pg != sg || pt > st {
		t.Errorf("allocs per query: MinGap %v → %v, TopK %v → %v from 76 to 2116 schedules", sg, pg, st, pt)
	}
}

// FuzzTopK checks MinGap and TopK against the oracle, bit for bit, on
// N ≤ 7 stages and M ≤ 4 classes. times supplies the latencies (cycled
// when short), scaled by a representable step, a non-representable one
// or a small one; slack < 200 selects a gapness filter at slack/100.
func FuzzTopK(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(5), uint8(40), uint8(0), []byte{4, 1, 7, 2, 2, 9, 3, 3, 1})
	f.Add(uint8(8), uint8(3), uint8(20), uint8(255), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(6), uint8(1), uint8(1), uint8(0), uint8(2), []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, n, m, k, slack, scale uint8, times []byte) {
		p := &Problem{N: 1 + int(n)%7, M: 1 + int(m)%4}
		step := []float64{0.25, 1.0 / 7, 1e-3}[int(scale)%3]
		for i := 0; i < p.N; i++ {
			row := make([]float64, p.M)
			for c := range row {
				v := i*p.M + c + 1
				if len(times) > 0 {
					v = int(times[(i*p.M+c)%len(times)])
				}
				row[c] = float64(v) * step
			}
			p.Time = append(p.Time, row)
		}
		gap, ok := MinGap(p)
		wantGap, wantOK := oracleMinGap(p)
		if ok != wantOK || math.Float64bits(gap) != math.Float64bits(wantGap) {
			t.Fatalf("MinGap = %v, %v; oracle %v, %v", gap, ok, wantGap, wantOK)
		}
		var filter FilterFunc
		if slack < 200 {
			filter = gapFilter(gap, float64(slack)/100)
		}
		var stats SearchStats
		got := TopK(p, int(k)%25, filter, &stats)
		want, wantStats := oracleTopK(p, int(k)%25, filter)
		sameSolutions(t, "fuzz", got, want)
		checkStats(t, "fuzz", stats, wantStats)
	})
}

func BenchmarkTopK20Paper(b *testing.B) {
	// The paper's Pixel case: N=9 stages, M=4 classes. Must stay far
	// under the paper's 50 ms z3 budget.
	p := randomProblem(rand.New(rand.NewSource(1)), 9, 4, 1)
	b.ReportAllocs()
	for b.Loop() {
		TopK(p, 20, nil, nil)
	}
}
