package trace

import (
	"math"
	"slices"
	"strings"
	"testing"
)

func sampleTimeline() *Timeline {
	t := &Timeline{}
	// Two chunks: chunk 0 runs stages 0,1 back to back per task; chunk 1
	// runs stage 2.
	t.Add(Span{Chunk: 0, PU: "big", Stage: "s0", StageIndex: 0, Task: 0, Start: 0, End: 1})
	t.Add(Span{Chunk: 0, PU: "big", Stage: "s1", StageIndex: 1, Task: 0, Start: 1, End: 2})
	t.Add(Span{Chunk: 1, PU: "gpu", Stage: "s2", StageIndex: 2, Task: 0, Start: 2, End: 4})
	t.Add(Span{Chunk: 0, PU: "big", Stage: "s0", StageIndex: 0, Task: 1, Start: 2, End: 3})
	t.Add(Span{Chunk: 0, PU: "big", Stage: "s1", StageIndex: 1, Task: 1, Start: 3, End: 4})
	return t
}

func TestHorizonAndChunks(t *testing.T) {
	tl := sampleTimeline()
	if tl.Horizon() != 4 {
		t.Errorf("Horizon = %v", tl.Horizon())
	}
	if tl.Chunks() != 2 {
		t.Errorf("Chunks = %v", tl.Chunks())
	}
	if (&Timeline{}).Horizon() != 0 {
		t.Error("empty horizon should be 0")
	}
}

func TestBusyFractions(t *testing.T) {
	tl := sampleTimeline()
	busy := tl.BusyFractions()
	// Chunk 0 busy 4 of 4 seconds; chunk 1 busy 2 of 4.
	if math.Abs(busy[0]-1.0) > 1e-12 || math.Abs(busy[1]-0.5) > 1e-12 {
		t.Errorf("busy = %v", busy)
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: 1.5, End: 4}
	if s.Duration() != 2.5 {
		t.Errorf("Duration = %v", s.Duration())
	}
}

func TestGanttStructure(t *testing.T) {
	tl := sampleTimeline()
	out := tl.Gantt(40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 2 chunk rows + legend + 2 utilization rows + horizon line.
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "chunk 0 (big)") || !strings.Contains(lines[1], "chunk 1 (gpu)") {
		t.Errorf("row labels wrong:\n%s", out)
	}
	// Chunk 0's row has no idle dots (busy 100%); chunk 1's row has
	// idle at the start.
	row0 := lines[0][strings.Index(lines[0], "|")+1:]
	if strings.Contains(strings.TrimSuffix(row0, "|"), ".") {
		t.Errorf("chunk 0 shows idle cells: %q", row0)
	}
	row1 := lines[1][strings.Index(lines[1], "|")+1:]
	if !strings.HasPrefix(row1, ".") {
		t.Errorf("chunk 1 should start idle: %q", row1)
	}
	if !strings.Contains(out, "legend: 0=s0 1=s1 2=s2") {
		t.Errorf("legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "busy 100%") || !strings.Contains(out, "busy 50%") {
		t.Errorf("utilization summary wrong:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	if got := (&Timeline{}).Gantt(20); !strings.Contains(got, "empty") {
		t.Errorf("empty gantt = %q", got)
	}
}

func TestGanttDefaultsWidth(t *testing.T) {
	tl := sampleTimeline()
	out := tl.Gantt(0)
	first := strings.Split(out, "\n")[0]
	// 80 cells between the pipes.
	inner := first[strings.Index(first, "|")+1 : strings.LastIndex(first, "|")]
	if len(inner) != 80 {
		t.Errorf("default width = %d", len(inner))
	}
}

func TestStageGlyphStable(t *testing.T) {
	if stageGlyph(0) != '0' || stageGlyph(10) != 'a' || stageGlyph(36) != '0' {
		t.Error("glyph mapping changed")
	}
}

func TestGanttDominantStagePerCell(t *testing.T) {
	// A cell split between two stages shows the one that occupied more
	// of it.
	tl := &Timeline{}
	tl.Add(Span{Chunk: 0, PU: "big", Stage: "a", StageIndex: 0, Start: 0, End: 0.2})
	tl.Add(Span{Chunk: 0, PU: "big", Stage: "b", StageIndex: 1, Start: 0.2, End: 1})
	out := tl.Gantt(1)
	row := strings.Split(out, "\n")[0]
	if !strings.Contains(row, "|1|") {
		t.Errorf("dominant stage not shown: %q", row)
	}
}

// TestGanttZeroHorizonGolden pins the exact guard output: a timeline
// with no spans, and one whose spans all have zero extent, must both
// render the stable empty-timeline string (exporters and the
// introspection server rely on Gantt never dividing by a zero horizon).
func TestGanttZeroHorizonGolden(t *testing.T) {
	const golden = "(empty timeline)\n"
	zeroSpan := &Timeline{}
	zeroSpan.Add(Span{Chunk: 0, PU: "big", Stage: "s0", Start: 0, End: 0})
	zeroSpan.Add(Span{Chunk: 1, PU: "gpu", Stage: "s1", Start: 0, End: 0})
	cases := []struct {
		name string
		tl   *Timeline
	}{
		{"no spans", &Timeline{}},
		{"all zero-extent spans", zeroSpan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, width := range []int{0, 1, 40, 200} {
				if got := tc.tl.Gantt(width); got != golden {
					t.Fatalf("Gantt(%d) = %q, want %q", width, got, golden)
				}
			}
		})
	}
}

// TestRowLabelsFirstSpanAndOverride pins the one row-label rule Gantt
// and the Chrome exporter share: an explicit label wins, otherwise the
// row's first span names it, even when a later span ran on another PU.
func TestRowLabelsFirstSpanAndOverride(t *testing.T) {
	tl := &Timeline{Labels: []string{"", "custom"}}
	tl.Add(Span{Chunk: 0, PU: "big", Stage: "a", Start: 0, End: 1})
	tl.Add(Span{Chunk: 0, PU: "gpu", Stage: "a", Start: 1, End: 2})
	tl.Add(Span{Chunk: 1, PU: "little", Stage: "b", StageIndex: 1, Start: 0, End: 2})
	got := tl.RowLabels()
	if want := []string{"chunk 0 (big)", "custom"}; !slices.Equal(got, want) {
		t.Fatalf("RowLabels = %q, want %q", got, want)
	}
	if g := tl.Gantt(10); !strings.HasPrefix(g, "chunk 0 (big) |") || !strings.Contains(g, "\ncustom        |") {
		t.Fatalf("Gantt rows not labeled by RowLabels:\n%s", g)
	}
}
