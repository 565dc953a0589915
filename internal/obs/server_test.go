package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bettertogether/internal/metrics"
	"bettertogether/internal/trace"
)

// fakeInspector is a canned obs.Inspector for handler tests.
type fakeInspector struct {
	infos     []SessionInfo
	metrics   map[string]*metrics.Pipeline
	timelines map[string]*trace.Timeline
	headroom  Headroom
}

func (f *fakeInspector) SessionInfos() []SessionInfo { return f.infos }
func (f *fakeInspector) SessionMetrics(name string) *metrics.Pipeline {
	return f.metrics[name]
}
func (f *fakeInspector) SessionTimeline(name string) *trace.Timeline {
	return f.timelines[name]
}
func (f *fakeInspector) AdmissionHeadroom() Headroom { return f.headroom }

func testServerConfig() ServerConfig {
	insp := &fakeInspector{
		infos: []SessionInfo{
			{Name: "octree#0", App: "octree", Schedule: "[big gpu]", Tasks: 12, Replans: 1, PerTaskSec: 0.004, Resident: true},
			{Name: "vision#1", App: "vision", Schedule: "[gpu]", Tasks: 30, Err: "boom"},
		},
		metrics:   map[string]*metrics.Pipeline{"octree#0": testCollector()},
		timelines: map[string]*trace.Timeline{"octree#0": testTimeline()},
		headroom: Headroom{
			BWDemandGBs: 10, BWCapacityGBs: 40,
			CoresDemand: 6, CoresCapacity: 16,
			ResidentCount: 1, AdmittedTotal: 2, RejectedTotal: 1,
		},
	}
	stream := NewStream(16)
	admit := NewEvent(KindAdmit)
	admit.Session, admit.Detail = "octree#0", "[big gpu]"
	stream.Emit(admit)
	e := NewEvent(KindStageDone)
	e.Session, e.Stage, e.Chunk, e.Task = "octree#0", "sort", 0, 3
	stream.Emit(e)
	return ServerConfig{
		Inspector: insp,
		Stream:    stream,
		Metrics:   []func(io.Writer) error{stream.PromEvents},
		Timeline: func() *trace.Timeline {
			return trace.MergeSessions(trace.SessionTrace{Name: "octree#0", Timeline: insp.timelines["octree#0"]})
		},
	}
}

// get performs a request against the handler and returns status + body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func TestServerEndpointsRespond(t *testing.T) {
	h := NewHandler(testServerConfig())
	for _, path := range []string{"/", "/healthz", "/metrics", "/sessions", "/trace", "/events", "/debug/pprof/"} {
		code, body := get(t, h, path)
		if code != http.StatusOK {
			t.Errorf("GET %s → %d", path, code)
		}
		if body == "" {
			t.Errorf("GET %s → empty body", path)
		}
	}
	if code, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path → %d, want 404", code)
	}
}

func TestServerHealthz(t *testing.T) {
	_, body := get(t, NewHandler(ServerConfig{}), "/healthz")
	if body != "ok\n" {
		t.Fatalf("healthz body %q", body)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	code, body := get(t, NewHandler(testServerConfig()), "/metrics")
	if code != 200 || body == "" {
		t.Fatalf("metrics: %d, %d bytes", code, len(body))
	}
	for _, want := range []string{
		`bt_stage_dispatches_total{session="octree#0",stage="sort",chunk="0",pu="big"} 10`,
		`bt_session_tasks_total{session="octree#0",app="octree"} 12`,
		`bt_session_replans_total{session="octree#0",app="octree"} 1`,
		`bt_session_resident{session="vision#1",app="vision"} 0`,
		`bt_admission_bandwidth_gbs{side="demand"} 10`,
		`bt_admission_cores{side="capacity"} 16`,
		`bt_sessions_resident 1`,
		`bt_admissions_total 2`,
		`bt_admission_rejections_total 1`,
		`bt_events_emitted_total 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	checkExposition(t, body)
}

func TestServerSessions(t *testing.T) {
	_, body := get(t, NewHandler(testServerConfig()), "/sessions")
	var doc sessionsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("sessions JSON: %v", err)
	}
	if len(doc.Sessions) != 2 {
		t.Fatalf("session count %d", len(doc.Sessions))
	}
	if doc.Sessions[0].Name != "octree#0" || !doc.Sessions[0].Resident {
		t.Fatalf("first session %+v", doc.Sessions[0])
	}
	if doc.Sessions[1].Err != "boom" {
		t.Fatalf("error session %+v", doc.Sessions[1])
	}
	if doc.Headroom.BWCapacityGBs != 40 || doc.Headroom.ResidentCount != 1 {
		t.Fatalf("headroom %+v", doc.Headroom)
	}

	// No inspector: valid empty table.
	_, body = get(t, NewHandler(ServerConfig{}), "/sessions")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("empty sessions JSON: %v", err)
	}
	if len(doc.Sessions) != 0 {
		t.Fatalf("expected no sessions, got %d", len(doc.Sessions))
	}
}

func TestServerTrace(t *testing.T) {
	cfg := testServerConfig()
	h := NewHandler(cfg)

	// One session's trace.
	_, body := get(t, h, "/trace?session=octree%230")
	var doc ChromeTraceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 3 {
		t.Fatalf("session trace has %d spans, want 3", spans)
	}

	// Unknown session → 404.
	if code, _ := get(t, h, "/trace?session=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown session trace → %d", code)
	}

	// No session: merged across sessions, with session-qualified tracks.
	_, body = get(t, h, "/trace")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("merged trace JSON: %v", err)
	}
	foundQualified := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			if name, _ := e.Args["name"].(string); strings.HasPrefix(name, "octree#0/") {
				foundQualified = true
			}
		}
	}
	if !foundQualified {
		t.Fatal("merged trace lacks session-qualified track names")
	}

	// Single-run fallback timeline.
	single := NewHandler(ServerConfig{Timeline: func() *trace.Timeline { return testTimeline() }})
	_, body = get(t, single, "/trace")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("single trace JSON: %v", err)
	}
}

func TestServerEvents(t *testing.T) {
	h := NewHandler(testServerConfig())
	_, body := get(t, h, "/events")
	var doc eventsDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("events JSON: %v", err)
	}
	if doc.Total != 2 || len(doc.Events) != 2 {
		t.Fatalf("events doc %+v", doc)
	}
	if doc.Events[0].Kind != "admit" || doc.Events[1].Kind != "stage-done" {
		t.Fatalf("event kinds %q,%q", doc.Events[0].Kind, doc.Events[1].Kind)
	}
	if doc.Events[1].Chunk == nil || *doc.Events[1].Chunk != 0 {
		t.Fatalf("chunk pointer %+v", doc.Events[1])
	}
	if doc.Events[0].Chunk != nil {
		t.Fatal("admit event must omit chunk")
	}

	if code, _ := get(t, h, "/events?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n → %d", code)
	}
	_, body = get(t, h, "/events?n=1")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Events) != 1 {
		t.Fatalf("limited events: %v, %d", err, len(doc.Events))
	}

	// No stream mounted: valid empty doc.
	_, body = get(t, NewHandler(ServerConfig{}), "/events")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Total != 0 {
		t.Fatalf("streamless events: %v, %+v", err, doc)
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", testServerConfig())
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(b) != "ok\n" {
		t.Fatalf("healthz over TCP: %d %q", resp.StatusCode, b)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
