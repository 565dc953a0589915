// Package solver implements the constraint system of BT-Optimizer
// (paper Sec. 3.3) as one flat pass over its schedule space, standing in
// for the paper's z3 encoding. The formulation is identical:
//
//	C1   exactly one PU class per stage (by construction of the
//	     assignment vector)
//	C2   contiguity: stages on one class form a single chunk, so a
//	     schedule is a set of chunk boundaries plus an injective map
//	     from chunks to classes
//	C3   the chunk-runtime window, applied by the caller as a filter
//	     over each schedule's T_max and T_min (sched's gapness filter)
//	C5ℓ  distinct assignments, which hold by construction: the pass
//	     scores each schedule exactly once
//	O1   minimize gapness = T_max − T_min over chunk runtimes
//
// C1 and C2 cut the raw M^N space to Σₖ C(N−1,k−1)·P(M,k) schedules:
// 2 116 for the paper's N=9 stages and M=4 classes. That is small
// enough to score every schedule on every query, with no search to
// prune: a top-20 query over the paper's space takes about 0.2 ms, far
// under the paper's <50 ms z3 budget.
package solver

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Problem is a scheduling instance: Time[i][c] is the profiled latency of
// stage i on class c (any consistent time unit).
type Problem struct {
	N, M int
	Time [][]float64
}

// Validate checks the instance's shape.
func (p *Problem) Validate() error {
	if p.N <= 0 || p.M <= 0 {
		return fmt.Errorf("solver: need positive N and M, got %d, %d", p.N, p.M)
	}
	if p.M > 30 {
		return fmt.Errorf("solver: class bitmask supports at most 30 classes, got %d", p.M)
	}
	if len(p.Time) != p.N {
		return fmt.Errorf("solver: time table has %d rows, want %d", len(p.Time), p.N)
	}
	for i, row := range p.Time {
		if len(row) != p.M {
			return fmt.Errorf("solver: row %d has %d entries, want %d", i, len(row), p.M)
		}
		for c, v := range row {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("solver: time[%d][%d] = %v invalid", i, c, v)
			}
		}
	}
	return nil
}

// Solution is one feasible assignment with its chunk metrics.
type Solution struct {
	// Assign[i] is the class index of stage i.
	Assign []int
	// ChunkTimes are the summed runtimes of the maximal chunks in order.
	ChunkTimes []float64
	// TMax and TMin are the extreme chunk runtimes. TMax is the
	// predicted pipeline latency (bottleneck period); TMax−TMin is the
	// gapness.
	TMax, TMin float64
}

// Gap returns the gapness objective O1.
func (s Solution) Gap() float64 { return s.TMax - s.TMin }

// Key returns the canonical text of an assignment. Top-K ranking breaks
// exact TMax ties by this text's order.
func Key(assign []int) string {
	var b strings.Builder
	for i, a := range assign {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(a))
	}
	return b.String()
}

// keyLess reports Key(a) < Key(b) for two equal-length assignments
// without building either string. Equal prefixes render to equal text,
// so the first differing class decides: its decimal text, where a
// proper prefix sorts first (a ',' or the end of the string follows it,
// and both sort before any digit).
func keyLess(a, b []int) bool {
	for i := range a {
		if x, y := a[i], b[i]; x != y {
			dx, dy := decimalDigits(x), decimalDigits(y)
			px, py := x, y
			for n := dx; n > dy; n-- {
				px /= 10
			}
			for n := dy; n > dx; n-- {
				py /= 10
			}
			if px != py {
				return px < py
			}
			return dx < dy
		}
	}
	return false
}

// decimalDigits is the length of the decimal text of v >= 0.
func decimalDigits(v int) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// FilterFunc accepts or rejects a scored schedule before it competes for
// a top-K slot. It must be pure, and it must not retain the solution's
// slices: the pass reuses them for the next schedule.
type FilterFunc func(Solution) bool

// SearchStats counts one top-K query's work.
type SearchStats struct {
	// Visited counts the schedules scored: every contiguous schedule.
	Visited int
	// Pruned counts the scored schedules the filter rejected.
	Pruned int
}

// pass calls visit once for every schedule satisfying C1 and C2, until
// visit returns false. It walks each set of chunk boundaries with at
// most M chunks, fewest chunks first, and for each set every injective
// map from chunks to classes, both in lexicographic order and without
// recursion. Each chunk's runtime is summed left to right from its first
// stage, and TMax and TMin fold the chunks in order. s is scratch the
// pass refills for every schedule; nothing is allocated per schedule.
// p must be valid.
func pass(p *Problem, visit func(s *Solution) bool) {
	n, m := p.N, p.M
	// starts[j] is chunk j's first stage; starts[k] = n closes the last.
	starts := make([]int, n+1)
	// sums[j*m+c] is chunk j's runtime on class c.
	sums := make([]float64, n*m)
	// class[j] is chunk j's class; hi[j+1] and lo[j+1] fold chunks 0..j
	// onto the -Inf and +Inf seeds at index 0.
	class := make([]int, n)
	hi, lo := make([]float64, n+1), make([]float64, n+1)
	hi[0], lo[0] = math.Inf(-1), math.Inf(1)
	times := make([]float64, n)
	s := &Solution{Assign: make([]int, n)}
	for k := 1; k <= min(n, m); k++ {
		s.ChunkTimes = times[:k]
		// The first boundary set of k chunks: one stage per chunk, the
		// last chunk taking the rest.
		for j := 0; j < k; j++ {
			starts[j] = j
		}
		starts[k] = n
		for {
			for j := 0; j < k; j++ {
				first, end := starts[j], starts[j+1]
				for c := 0; c < m; c++ {
					sum := p.Time[first][c]
					for i := first + 1; i < end; i++ {
						sum += p.Time[i][c]
					}
					sums[j*m+c] = sum
				}
			}
			// Every injective class map, one chunk per level: used holds
			// the classes of chunks 0..j-1. The last chunk's level scores
			// a schedule for each class still unused.
			used, j := 0, 0
			class[0] = -1
			for {
				if j == k-1 {
					for c := 0; c < m; c++ {
						if used&(1<<c) != 0 {
							continue
						}
						t := sums[j*m+c]
						times[j] = t
						for i := starts[j]; i < n; i++ {
							s.Assign[i] = c
						}
						s.TMax, s.TMin = max(hi[j], t), min(lo[j], t)
						if !visit(s) {
							return
						}
					}
					if j == 0 {
						break
					}
					j--
					continue
				}
				if class[j] >= 0 {
					used &^= 1 << class[j]
				}
				c := class[j] + 1
				for c < m && used&(1<<c) != 0 {
					c++
				}
				if c == m {
					if j == 0 {
						break
					}
					j--
					continue
				}
				class[j] = c
				used |= 1 << c
				t := sums[j*m+c]
				times[j] = t
				for i := starts[j]; i < starts[j+1]; i++ {
					s.Assign[i] = c
				}
				hi[j+1], lo[j+1] = max(hi[j], t), min(lo[j], t)
				j++
				class[j] = -1
			}
			// The next boundary set: move the rightmost boundary that
			// can still move right, and pack the ones after it behind it.
			b := k - 1
			for b >= 1 && starts[b] == n-k+b {
				b--
			}
			if b < 1 {
				break
			}
			starts[b]++
			for q := b + 1; q < k; q++ {
				starts[q] = starts[q-1] + 1
			}
		}
	}
}

// Each calls visit once for every schedule satisfying C1 and C2, in the
// order MinGap and TopK score them, until visit returns false. visit
// must not retain s or its slices: the pass refills them for the next
// schedule. It returns the problem's validation error, if any, without
// visiting anything.
func Each(p *Problem, visit func(s *Solution) bool) error {
	if err := p.Validate(); err != nil {
		return err
	}
	pass(p, visit)
	return nil
}

// MinGap solves objective O1: the smallest gapness T_max − T_min over
// every feasible schedule. ok is false when the problem is invalid or no
// schedule's gapness compares (all NaN). No gapness is below zero and a
// one-chunk schedule's is exactly zero, so the pass, which scores those
// first, stops at the first zero.
func MinGap(p *Problem) (gap float64, ok bool) {
	if p.Validate() != nil {
		return 0, false
	}
	gap = math.Inf(1)
	pass(p, func(s *Solution) bool {
		if g := s.Gap(); g < gap {
			gap, ok = g, true
		}
		return gap != 0
	})
	return gap, ok
}

// ranked is one top-K incumbent: its chunk extremes and where its
// assignment sits in the incumbents' shared store.
type ranked struct {
	tmax, tmin float64
	at         int
}

// TopK returns up to k schedules passing filter with the smallest TMax,
// ascending. Exact TMax ties rank by Key order, so the order is total
// and the result deterministic; it is the paper's optimization two (K
// distinct candidates by repeated solving with blocking clauses C5ℓ),
// taken from one pass. A nil filter admits everything. stats, when
// non-nil, is reset and filled with the query's counters. An invalid
// problem or k <= 0 yields nil.
func TopK(p *Problem, k int, filter FilterFunc, stats *SearchStats) []Solution {
	if stats != nil {
		*stats = SearchStats{}
	}
	if k <= 0 || p.Validate() != nil {
		return nil
	}
	n := p.N
	// top is a bounded max-heap ordered by worse: the root is the worst
	// incumbent, so a schedule either loses to it in O(1) or replaces it
	// in O(log k). store holds the incumbents' assignments, n per slot.
	var top []ranked
	var store []int
	assign := func(r ranked) []int { return store[r.at : r.at+n] }
	worse := func(a, b ranked) bool {
		if a.tmax != b.tmax {
			return a.tmax > b.tmax
		}
		return keyLess(assign(b), assign(a))
	}
	siftDown := func(i int) {
		for {
			l, r, w := 2*i+1, 2*i+2, i
			if l < len(top) && worse(top[l], top[w]) {
				w = l
			}
			if r < len(top) && worse(top[r], top[w]) {
				w = r
			}
			if w == i {
				return
			}
			top[i], top[w] = top[w], top[i]
			i = w
		}
	}
	var visited, pruned int
	pass(p, func(s *Solution) bool {
		visited++
		if filter != nil && !filter(*s) {
			pruned++
			return true
		}
		if len(top) < k {
			top = append(top, ranked{s.TMax, s.TMin, len(store)})
			store = append(store, s.Assign...)
			for i := len(top) - 1; i > 0; {
				parent := (i - 1) / 2
				if !worse(top[i], top[parent]) {
					break
				}
				top[i], top[parent] = top[parent], top[i]
				i = parent
			}
			return true
		}
		root := top[0]
		if s.TMax > root.tmax || (s.TMax == root.tmax && keyLess(assign(root), s.Assign)) {
			return true
		}
		copy(assign(root), s.Assign)
		top[0] = ranked{s.TMax, s.TMin, root.at}
		siftDown(0)
		return true
	})
	if stats != nil {
		stats.Visited, stats.Pruned = visited, pruned
	}
	if len(top) == 0 {
		return nil
	}
	sort.Slice(top, func(a, b int) bool { return worse(top[b], top[a]) })
	out := make([]Solution, len(top))
	for i, r := range top {
		out[i] = Solution{
			Assign:     append([]int(nil), assign(r)...),
			ChunkTimes: chunkTimes(p, assign(r)),
			TMax:       r.tmax,
			TMin:       r.tmin,
		}
	}
	return out
}

// chunkTimes sums a contiguous assignment's chunks left to right, the
// pass's float order.
func chunkTimes(p *Problem, assign []int) []float64 {
	chunks := 1
	for i := 1; i < len(assign); i++ {
		if assign[i] != assign[i-1] {
			chunks++
		}
	}
	out := make([]float64, 0, chunks)
	for i := 0; i < len(assign); {
		c, sum := assign[i], p.Time[i][assign[i]]
		for i++; i < len(assign) && assign[i] == c; i++ {
			sum += p.Time[i][c]
		}
		out = append(out, sum)
	}
	return out
}
