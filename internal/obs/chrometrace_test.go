package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"bettertogether/internal/trace"
)

// testTimeline builds a two-row timeline with known spans.
func testTimeline() *trace.Timeline {
	tl := &trace.Timeline{}
	tl.Add(trace.Span{Chunk: 0, PU: "big", Stage: "sort", StageIndex: 0, Task: 0, Start: 0, End: 0.002})
	tl.Add(trace.Span{Chunk: 0, PU: "big", Stage: "sort", StageIndex: 0, Task: 1, Start: 0.002, End: 0.0035})
	tl.Add(trace.Span{Chunk: 1, PU: "gpu", Stage: "build", StageIndex: 1, Task: 0, Start: 0.002, End: 0.0081})
	return tl
}

func TestChromeTraceValidatesAndRoundTrips(t *testing.T) {
	tl := testTimeline()
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, tl); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}

	// The output must be valid trace_event JSON (object format).
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}

	// Round-trip span count and durations against the source timeline.
	var spans, meta int
	var totalDurUs float64
	threadNames := map[int]string{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			spans++
			totalDurUs += e.Dur
			if e.Ts < 0 || e.Dur <= 0 {
				t.Fatalf("degenerate complete event %+v", e)
			}
			if e.Cat != "stage" {
				t.Fatalf("complete event category %q", e.Cat)
			}
			if _, ok := e.Args["task"]; !ok {
				t.Fatalf("complete event lacks task arg: %+v", e)
			}
		case "M":
			meta++
			if e.Name == "thread_name" {
				threadNames[e.Tid] = e.Args["name"].(string)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if spans != len(tl.Spans) {
		t.Fatalf("exported %d spans, timeline has %d", spans, len(tl.Spans))
	}
	var wantUs float64
	for _, s := range tl.Spans {
		wantUs += s.Duration() * 1e6
	}
	if math.Abs(totalDurUs-wantUs) > 1e-6 {
		t.Fatalf("total duration %.6fµs, timeline %.6fµs", totalDurUs, wantUs)
	}
	if threadNames[0] != "chunk 0 (big)" || threadNames[1] != "chunk 1 (gpu)" {
		t.Fatalf("thread names %+v", threadNames)
	}
	if meta != 3 { // process_name + 2 thread_names
		t.Fatalf("metadata events %d, want 3", meta)
	}
}

func TestChromeTraceUsesTimelineLabels(t *testing.T) {
	tl := testTimeline()
	tl.Labels = []string{"vision#0/chunk 0 (big)", ""}
	var buf bytes.Buffer
	if err := ChromeTrace(&buf, tl); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var doc ChromeTraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			names = append(names, e.Args["name"].(string))
		}
	}
	if names[0] != "vision#0/chunk 0 (big)" {
		t.Fatalf("label override lost: %v", names)
	}
	if names[1] != "chunk 1 (gpu)" {
		t.Fatalf("unlabeled row must self-label: %v", names)
	}
}

func TestChromeTraceEmptyTimeline(t *testing.T) {
	for _, tl := range []*trace.Timeline{nil, {}} {
		var buf bytes.Buffer
		if err := ChromeTrace(&buf, tl); err != nil {
			t.Fatalf("ChromeTrace(%v): %v", tl, err)
		}
		var doc map[string]any
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("empty document invalid: %v", err)
		}
		evs, ok := doc["traceEvents"].([]any)
		if !ok {
			t.Fatalf("traceEvents must be an array, got %T", doc["traceEvents"])
		}
		for _, e := range evs {
			if e.(map[string]any)["ph"] == "X" {
				t.Fatal("empty timeline produced span events")
			}
		}
	}
}
