// Package trace records pipeline execution timelines: one span per
// stage execution, attributed to its chunk, PU class, and task. The
// simulator fills a Timeline on request; the ASCII Gantt rendering makes
// schedule behaviour — overlap, bubbles, bottlenecks — visible in a
// terminal, which is how we debugged the DES and how the examples
// explain schedules.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"bettertogether/internal/core"
)

// Span is one stage execution on one PU.
type Span struct {
	// Chunk indexes the pipeline chunk that dispatched the stage.
	Chunk int
	// PU is the executing class.
	PU core.PUClass
	// Stage is the stage name.
	Stage string
	// StageIndex is the stage's pipeline position.
	StageIndex int
	// Task is the stream sequence number.
	Task int
	// Start and End are in seconds (virtual or wall, per the engine).
	Start, End float64
}

// Duration returns the span length.
func (s Span) Duration() float64 { return s.End - s.Start }

// Timeline accumulates spans for one execution run.
type Timeline struct {
	Spans []Span
	// Labels optionally overrides the row labels (see RowLabels): row r
	// uses Labels[r] when set. Engines leave it nil (rows label themselves
	// "chunk N (pu)"); MergeSessions fills it with session-qualified
	// names.
	Labels []string
}

// Add appends a span.
func (t *Timeline) Add(s Span) { t.Spans = append(t.Spans, s) }

// Horizon returns the latest span end.
func (t *Timeline) Horizon() float64 {
	h := 0.0
	for _, s := range t.Spans {
		if s.End > h {
			h = s.End
		}
	}
	return h
}

// Chunks returns the number of distinct chunk rows.
func (t *Timeline) Chunks() int {
	n := 0
	for _, s := range t.Spans {
		if s.Chunk+1 > n {
			n = s.Chunk + 1
		}
	}
	return n
}

// RowLabels names each chunk row: Labels[r] when set, else
// "chunk N (pu)" from the row's first span. Gantt and the Chrome trace
// exporter both label their rows with it.
func (t *Timeline) RowLabels() []string {
	labels := make([]string, t.Chunks())
	for _, s := range t.Spans {
		if labels[s.Chunk] == "" {
			labels[s.Chunk] = fmt.Sprintf("chunk %d (%s)", s.Chunk, s.PU)
		}
	}
	for r := range labels {
		if r < len(t.Labels) && t.Labels[r] != "" {
			labels[r] = t.Labels[r]
		}
	}
	return labels
}

// BusyFractions returns each chunk's busy time divided by the horizon.
func (t *Timeline) BusyFractions() []float64 {
	h := t.Horizon()
	out := make([]float64, t.Chunks())
	if h == 0 {
		return out
	}
	for _, s := range t.Spans {
		out[s.Chunk] += s.Duration() / h
	}
	return out
}

// stageGlyph maps a stage index to a stable printable rune.
func stageGlyph(idx int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
	return glyphs[idx%len(glyphs)]
}

// Gantt renders the timeline as one row per chunk over width columns.
// Cells show the stage glyph that occupied most of the cell's time
// bucket; idle buckets are '.'. A legend and per-chunk utilization
// follow.
func (t *Timeline) Gantt(width int) string {
	if width <= 0 {
		width = 80
	}
	h := t.Horizon()
	n := t.Chunks()
	if h == 0 || n == 0 {
		return "(empty timeline)\n"
	}
	// occupancy[row][col][stage] accumulates seconds.
	type cellAcc map[int]float64
	grid := make([][]cellAcc, n)
	for r := range grid {
		grid[r] = make([]cellAcc, width)
	}
	colDur := h / float64(width)
	for _, s := range t.Spans {
		c0 := int(s.Start / colDur)
		c1 := int(s.End / colDur)
		if c1 >= width {
			c1 = width - 1
		}
		for c := c0; c <= c1; c++ {
			bucketLo := float64(c) * colDur
			bucketHi := bucketLo + colDur
			lo, hi := s.Start, s.End
			if lo < bucketLo {
				lo = bucketLo
			}
			if hi > bucketHi {
				hi = bucketHi
			}
			if hi <= lo {
				continue
			}
			if grid[s.Chunk][c] == nil {
				grid[s.Chunk][c] = cellAcc{}
			}
			grid[s.Chunk][c][s.StageIndex] += hi - lo
		}
	}
	labels := t.RowLabels()
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	for r := 0; r < n; r++ {
		fmt.Fprintf(&b, "%-*s |", labelW, labels[r])
		for c := 0; c < width; c++ {
			cell := grid[r][c]
			if len(cell) == 0 {
				b.WriteByte('.')
				continue
			}
			best, bestT := -1, 0.0
			for stage, dur := range cell {
				if dur > bestT || (dur == bestT && stage < best) {
					best, bestT = stage, dur
				}
			}
			b.WriteByte(stageGlyph(best))
		}
		b.WriteString("|\n")
	}
	// Legend of stage glyphs present.
	seen := map[int]string{}
	for _, s := range t.Spans {
		seen[s.StageIndex] = s.Stage
	}
	idxs := make([]int, 0, len(seen))
	for i := range seen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	b.WriteString("legend:")
	for _, i := range idxs {
		fmt.Fprintf(&b, " %c=%s", stageGlyph(i), seen[i])
	}
	b.WriteByte('\n')
	for r, f := range t.BusyFractions() {
		fmt.Fprintf(&b, "%-*s busy %.0f%%\n", labelW+1, labels[r], f*100)
	}
	fmt.Fprintf(&b, "horizon %.3f ms over %d spans\n", h*1e3, len(t.Spans))
	return b.String()
}
