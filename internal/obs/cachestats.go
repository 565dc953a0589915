package obs

import (
	"io"

	"bettertogether/internal/schedcache"
)

// PromCache writes the schedule-cache counter families as Prometheus
// text exposition — the planning-hot-path health signal: a high
// bt_schedcache_hits_total over misses means replans are being served
// from memory instead of re-running the profiler and solver.
func PromCache(w io.Writer, s schedcache.Stats) error {
	pw := &promWriter{w: w}
	pw.family("bt_schedcache_hits_total", "counter",
		"Planning lookups served from the schedule cache.")
	pw.sample("bt_schedcache_hits_total", nil, float64(s.Hits))
	pw.family("bt_schedcache_misses_total", "counter",
		"Planning lookups that fell through to a cold solve.")
	pw.sample("bt_schedcache_misses_total", nil, float64(s.Misses))
	pw.family("bt_schedcache_stores_total", "counter",
		"Schedules stored into the cache after cold solves.")
	pw.sample("bt_schedcache_stores_total", nil, float64(s.Stores))
	pw.family("bt_schedcache_evictions_total", "counter",
		"Entries displaced by the LRU capacity bound.")
	pw.sample("bt_schedcache_evictions_total", nil, float64(s.Evictions))
	pw.family("bt_schedcache_entries", "gauge", "Current cached schedules.")
	pw.sample("bt_schedcache_entries", nil, float64(s.Size))
	pw.family("bt_schedcache_capacity", "gauge", "Configured cache capacity.")
	pw.sample("bt_schedcache_capacity", nil, float64(s.Capacity))
	return pw.err
}
