package trace

import (
	"strings"
	"testing"
)

// mergedSample merges two small session timelines: session A with two
// chunks on [0,2], session B with one chunk on [2,4].
func mergedSample() *Timeline {
	a := &Timeline{}
	a.Add(Span{Chunk: 0, PU: "big", Stage: "m", StageIndex: 0, Task: 0, Start: 0, End: 1})
	a.Add(Span{Chunk: 1, PU: "gpu", Stage: "s", StageIndex: 1, Task: 0, Start: 1, End: 2})
	b := &Timeline{}
	b.Add(Span{Chunk: 0, PU: "gpu", Stage: "conv", StageIndex: 0, Task: 0, Start: 2, End: 4})
	return MergeSessions(
		SessionTrace{Name: "octree#0", Timeline: a},
		SessionTrace{Name: "alex#1", Timeline: b},
	)
}

func TestMergeSessionsRebases(t *testing.T) {
	m := mergedSample()
	if len(m.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(m.Spans))
	}
	// Session B's chunk 0 lands on row 2, its stage index re-bases past
	// A's two stages, and its clock shifts by the offset.
	bSpan := m.Spans[2]
	if bSpan.Chunk != 2 || bSpan.StageIndex != 2 {
		t.Errorf("B span not re-based: chunk %d stage %d", bSpan.Chunk, bSpan.StageIndex)
	}
	if bSpan.Start != 2 || bSpan.End != 4 {
		t.Errorf("B span moved: [%v, %v]", bSpan.Start, bSpan.End)
	}
	if bSpan.Stage != "alex#1:conv" {
		t.Errorf("B stage not session-qualified: %q", bSpan.Stage)
	}
	wantLabels := []string{
		"octree#0/chunk 0 (big)",
		"octree#0/chunk 1 (gpu)",
		"alex#1/chunk 0 (gpu)",
	}
	if len(m.Labels) != len(wantLabels) {
		t.Fatalf("labels = %v", m.Labels)
	}
	for i, w := range wantLabels {
		if m.Labels[i] != w {
			t.Errorf("label %d = %q, want %q", i, m.Labels[i], w)
		}
	}
	if m.Horizon() != 4 {
		t.Errorf("merged horizon = %v, want 4", m.Horizon())
	}
}

// TestMergeSessionsGanttGolden pins the full merged rendering: row
// labels, glyph re-basing, session-qualified legend, utilization, and
// horizon. Any formatting change must update this deliberately.
func TestMergeSessionsGanttGolden(t *testing.T) {
	got := mergedSample().Gantt(8)
	want := strings.Join([]string{
		"octree#0/chunk 0 (big) |00......|",
		"octree#0/chunk 1 (gpu) |..11....|",
		"alex#1/chunk 0 (gpu)   |....2222|",
		"legend: 0=octree#0:m 1=octree#0:s 2=alex#1:conv",
		"octree#0/chunk 0 (big)  busy 25%",
		"octree#0/chunk 1 (gpu)  busy 25%",
		"alex#1/chunk 0 (gpu)    busy 50%",
		"horizon 4000.000 ms over 3 spans",
		"",
	}, "\n")
	if got != want {
		t.Errorf("merged Gantt drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestMergeSessionsSkipsNilAndNamesAnonymous(t *testing.T) {
	b := &Timeline{}
	b.Add(Span{Chunk: 0, PU: "big", Stage: "x", StageIndex: 0, Start: 0, End: 1})
	m := MergeSessions(
		SessionTrace{Name: "dead", Timeline: nil},
		SessionTrace{Timeline: b},
	)
	if len(m.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(m.Spans))
	}
	if m.Spans[0].Stage != "session 1:x" {
		t.Errorf("anonymous session not defaulted: %q", m.Spans[0].Stage)
	}
	if m.Spans[0].Chunk != 0 {
		t.Errorf("nil part consumed rows: chunk %d", m.Spans[0].Chunk)
	}
}
