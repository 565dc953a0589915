// Package schedcache memoizes planning results so re-planning leaves
// the runtime's admission hot path. The cache is keyed on a
// canonicalized (application fingerprint, device, interference Env,
// planning knobs) tuple:
//
//   - the application fingerprint hashes the stage sequence and every
//     cost-model field, so two structurally identical graphs share
//     entries while any cost perturbation separates them;
//   - the interference environment is keyed exactly, bit for bit, so a
//     hit only ever answers the environment the cold solve planned
//     against, and a runtime with a cache picks the same schedules as
//     one without (pinned by the property test in internal/runtime);
//   - the knobs fold in every optimizer parameter that can change the
//     chosen schedule (K, seed, any latency adjustment).
//
// Entries are evicted least-recently-used. All operations are safe for
// concurrent use; hit/miss/eviction/store counters export through
// internal/obs and the Prometheus text exposition.
package schedcache

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// DefaultCapacity bounds the cache when the caller passes a
// non-positive capacity.
const DefaultCapacity = 512

// Fingerprint canonically hashes an application's planning-relevant
// identity: its name, stage names, and every cost-model field, bit-exact
// via the float's IEEE-754 encoding. Equal graphs fingerprint equally;
// any cost perturbation yields a different fingerprint (pinned by
// property test). Kernel function identities are deliberately excluded —
// planning only ever reads the cost model.
func Fingerprint(app *core.Application) string {
	h := fnv.New64a()
	var buf [8]byte
	str := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:])
	}
	str(app.Name)
	for _, s := range app.Stages {
		str(s.Name)
		f64(s.Cost.FLOPs)
		f64(s.Cost.Bytes)
		f64(s.Cost.ParallelFraction)
		f64(s.Cost.Divergence)
		f64(s.Cost.Irregularity)
		f64(s.Cost.WorkItems)
		f64(s.Cost.Dispatches)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// Knobs are the planning parameters folded into the key: anything that
// can change the schedule a cold solve would pick. The profiling and
// autotuning budgets are the runtime's constants, so they are not keyed.
type Knobs struct {
	// K is the candidate pool size.
	K int
	// Seed is the full planning seed (runtime seed + session seed).
	Seed int64
	// Adjust is a digest of any latency-table adjustment active during
	// the solve (learned online-profiling overlays, injected modeling
	// error). Empty means an unadjusted solve and renders nothing, so
	// pre-existing keys are unchanged; any non-empty digest separates
	// the entry — a corrected replan must never resolve to a schedule
	// cached from uncorrected latencies, and vice versa.
	Adjust string
}

// Key canonicalizes one planning instance. The environment component
// renders every class present in env, in sorted order, with its
// MemIntensity's IEEE-754 bits, so the key is independent of Env map
// iteration order and two environments share a key exactly when they
// are the same environment. A class present at zero load stays in the
// key: the DVFS governor counts it as busy, so it plans differently from
// an absent class.
func Key(fingerprint, device string, env soc.Env, knobs Knobs) string {
	var b strings.Builder
	b.WriteString(fingerprint)
	b.WriteByte('|')
	b.WriteString(device)
	b.WriteString("|env:")
	for i, c := range env.BusyClasses() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%x", c, math.Float64bits(env[c].MemIntensity))
	}
	fmt.Fprintf(&b, "|k=%d|s=%d", knobs.K, knobs.Seed)
	if knobs.Adjust != "" {
		b.WriteString("|adj=")
		b.WriteString(knobs.Adjust)
	}
	return b.String()
}

// Stats is a point-in-time view of the cache's counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Stores counts Put calls;
	// Evictions counts entries displaced by the LRU capacity bound.
	Hits, Misses, Stores, Evictions uint64
	// Size is the current entry count; Capacity the configured bound.
	Size, Capacity int
}

// entry is one cached schedule keyed by its canonical planning tuple.
type entry struct {
	key   string
	sched core.Schedule
}

// Cache is a concurrency-safe LRU of planning results. Construct with
// New; one cache may be shared by several runtimes (the fleet-layer
// shape), every method locks internally.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> *entry element
	hits      uint64
	misses    uint64
	stores    uint64
	evictions uint64
}

// New builds an empty cache. A non-positive capacity selects
// DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the schedule cached under key. The returned schedule is an
// independent copy; mutating it cannot corrupt the cache.
func (c *Cache) Get(key string) (core.Schedule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return core.Schedule{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return copySchedule(e.sched), true
}

// Put stores a schedule under key, evicting the least-recently-used
// entries past capacity. The schedule is copied in, so later caller
// mutation cannot corrupt the cache.
func (c *Cache) Put(key string, s core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).sched = copySchedule(s)
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, sched: copySchedule(s)})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Stores: c.stores, Evictions: c.evictions,
		Size: c.ll.Len(), Capacity: c.capacity,
	}
}

// copySchedule deep-copies the assignment vector.
func copySchedule(s core.Schedule) core.Schedule {
	return core.Schedule{Assign: append([]core.PUClass(nil), s.Assign...)}
}
