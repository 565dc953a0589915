package sessiontrace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestChromeFlowLinksSpans(t *testing.T) {
	tr := all()
	spill(tr, "octree#1", 2.0, 5.0)
	doc, _ := tr.Trace("octree#1")
	out := ChromeFlow(doc)

	var slices, starts, steps, finishes int
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur <= 0 {
				t.Fatalf("zero-width slice %q: Perfetto cannot anchor flows on it", ev.Name)
			}
		case "s":
			starts++
		case "t":
			steps++
		case "f":
			finishes++
			if ev.BP != "e" {
				t.Fatalf("flow finish without bp=e: %+v", ev)
			}
		}
		if ev.Ph == "s" || ev.Ph == "t" || ev.Ph == "f" {
			if ev.ID != doc.TraceID {
				t.Fatalf("flow event id %q, want trace id %q", ev.ID, doc.TraceID)
			}
		}
	}
	if slices != len(doc.Spans) {
		t.Fatalf("%d slices for %d spans", slices, len(doc.Spans))
	}
	// One chain: a single start, a single finish, a step per inner span.
	if starts != 1 || finishes != 1 || steps != len(doc.Spans)-2 {
		t.Fatalf("flow chain s/t/f = %d/%d/%d over %d spans", starts, steps, finishes, len(doc.Spans))
	}
}

func TestHandlerServesIndexTreeAndChrome(t *testing.T) {
	tr := all()
	spill(tr, "octree#1", 2.0, 5.0)
	h := tr.Handler()

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}

	code, body := get("/traces")
	if code != http.StatusOK {
		t.Fatalf("index → %d", code)
	}
	var rows []traceSummary
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("index rows: %v, %d", err, len(rows))
	}
	if rows[0].Session != "octree#1" || rows[0].Verdict != VerdictAttained || rows[0].Spans == 0 {
		t.Fatalf("index row %+v", rows[0])
	}

	code, body = get("/traces/octree#1")
	if code != http.StatusOK {
		t.Fatalf("session doc → %d", code)
	}
	var doc TraceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("session doc: %v, %d spans", err, len(doc.Spans))
	}

	code, body = get("/traces/octree#1?format=chrome")
	if code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("chrome format → %d, %q", code, body[:min(len(body), 80)])
	}

	if code, _ = get("/traces/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown session → %d", code)
	}
}
