package obs

import (
	"io"
	"strings"
	"testing"

	"bettertogether/internal/schedcache"
)

// TestServerMetricsIncludeCache lists PromCache among the server's writers
// and checks the schedule-cache families land on /metrics alongside the
// rest of the exposition.
func TestServerMetricsIncludeCache(t *testing.T) {
	cfg := testServerConfig()
	cfg.Metrics = append(cfg.Metrics, func(w io.Writer) error {
		return PromCache(w, schedcache.Stats{Hits: 3, Misses: 1, Stores: 1, Size: 1, Capacity: 16})
	})
	code, body := get(t, NewHandler(cfg), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics → %d", code)
	}
	checkExposition(t, body)
	for _, want := range []string{
		"bt_schedcache_hits_total 3",
		"bt_schedcache_misses_total 1",
		"bt_schedcache_capacity 16",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Without the writer the families must stay absent.
	if _, plain := get(t, NewHandler(testServerConfig()), "/metrics"); strings.Contains(plain, "bt_schedcache") {
		t.Error("schedcache families exported without a PromCache writer")
	}
}

func TestPromCacheExposition(t *testing.T) {
	var b strings.Builder
	err := PromCache(&b, schedcache.Stats{
		Hits: 42, Misses: 7, Stores: 7, Evictions: 2,
		Size: 5, Capacity: 64,
	})
	if err != nil {
		t.Fatalf("PromCache: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bt_schedcache_hits_total counter",
		"bt_schedcache_hits_total 42",
		"# TYPE bt_schedcache_misses_total counter",
		"bt_schedcache_misses_total 7",
		"bt_schedcache_stores_total 7",
		"bt_schedcache_evictions_total 2",
		"# TYPE bt_schedcache_entries gauge",
		"bt_schedcache_entries 5",
		"bt_schedcache_capacity 64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}
