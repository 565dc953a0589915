package obs

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServerEventsLimitAndKindFilters(t *testing.T) {
	h := NewHandler(testServerConfig())

	// ?limit= is a synonym for ?n=, with the same fail-fast validation.
	var doc eventsDoc
	_, body := get(t, h, "/events?limit=1")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Events) != 1 {
		t.Fatalf("limit=1: %v, %d events", err, len(doc.Events))
	}
	for _, bad := range []string{"/events?limit=bogus", "/events?limit=-1", "/events?n=1&limit=2"} {
		if code, _ := get(t, h, bad); code != http.StatusBadRequest {
			t.Errorf("GET %s → %d, want 400", bad, code)
		}
	}

	// ?kind= keeps only matching events.
	_, body = get(t, h, "/events?kind=admit")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("kind filter: %v", err)
	}
	if len(doc.Events) != 1 || doc.Events[0].Kind != "admit" {
		t.Fatalf("kind=admit events %+v", doc.Events)
	}
	// kind + limit compose: the last N of that kind.
	_, body = get(t, h, "/events?kind=stage-done&limit=1")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Events) != 1 || doc.Events[0].Kind != "stage-done" {
		t.Fatalf("kind+limit: %v %+v", err, doc.Events)
	}
	// A matching kind with no events is an empty list, not an error.
	_, body = get(t, h, "/events?kind=migrate")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Events) != 0 {
		t.Fatalf("kind=migrate: %v, %d events", err, len(doc.Events))
	}
	// An unknown kind fails fast and names the valid set.
	code, body := get(t, h, "/events?kind=nonsense")
	if code != http.StatusBadRequest || !strings.Contains(body, "admit") {
		t.Fatalf("unknown kind → %d %q", code, body)
	}
}

func TestServerMountsTracesAndSLO(t *testing.T) {
	cfg := testServerConfig()
	cfg.Traces = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("[]"))
	})
	cfg.Metrics = append(cfg.Metrics, SLOStats{Sessions: 2, Attained: 1, Missed: 1}.PromSLO)
	h := NewHandler(cfg)

	if code, body := get(t, h, "/traces"); code != http.StatusOK || body != "[]" {
		t.Fatalf("/traces → %d %q", code, body)
	}
	if code, _ := get(t, h, "/traces/some-session"); code != http.StatusOK {
		t.Fatalf("/traces/{session} → %d", code)
	}
	if _, body := get(t, h, "/"); !strings.Contains(body, "/traces") {
		t.Fatal("index omits /traces while mounted")
	}
	_, body := get(t, h, "/metrics")
	if !strings.Contains(body, "bt_slo_attained_total 1") {
		t.Fatal("metrics omit bt_slo_* families")
	}
	checkExposition(t, body)

	// Without a tracer neither surface appears — the default exposition
	// stays byte-identical.
	h = NewHandler(testServerConfig())
	if code, _ := get(t, h, "/traces"); code != http.StatusNotFound {
		t.Fatalf("unmounted /traces → %d, want 404", code)
	}
	if _, body := get(t, h, "/"); strings.Contains(body, "/traces") {
		t.Fatal("index lists /traces without a tracer")
	}
	_, body = get(t, h, "/metrics")
	if strings.Contains(body, "bt_slo_") {
		t.Fatal("metrics carry bt_slo_* without an SLO source")
	}
	checkExposition(t, body)
}

func TestCloseBoundedBySlowHandler(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	cfg := testServerConfig()
	cfg.Traces = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release // reader parked mid-response, like a stalled scrape
	})
	srv, err := Serve("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer close(release)
	srv.drain = 50 * time.Millisecond

	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/traces")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Close reported a clean drain despite a stuck handler")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a slow reader instead of force-closing")
	}
}
