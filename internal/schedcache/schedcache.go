// Package schedcache memoizes planning results so re-planning leaves
// the runtime's admission hot path. An entry holds what a cold solve
// computes before it branches: the ranked candidate pool, plus the
// autotuned winner once autotuning has run on it, so a refused
// admission's pool is reused too. The cache is keyed on a canonicalized
// (application fingerprint, device, interference Env, planning knobs)
// tuple:
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
	// Seed is the planning seed: the runtime's seed, which drives its
	// profiling and autotuning noise.
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
	// Hits and Misses count Get outcomes; Stores counts Put calls (not
	// SetBest); Evictions counts entries displaced by the LRU capacity
	// bound.
	Hits, Misses, Stores, Evictions uint64
	// Size is the current entry count; Capacity the configured bound.
	Size, Capacity int
}

// Entry is a copy of one cached planning result: the autotuned winner
// once one has been recorded, else the ranked pool awaiting autotuning.
type Entry struct {
	// Winner is the schedule autotuning picked from the pool; its Assign
	// is nil while the pool has not been autotuned.
	Winner core.Schedule
	// Pool holds the candidate schedules in the planner's rank order. It
	// is nil once Winner is set, which is all a hit then needs.
	Pool []core.Schedule
}

// entry is one cached result keyed by its canonical planning tuple:
// the pool, and the index of its winner or -1.
type entry struct {
	key  string
	pool []core.Schedule
	best int
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

// Get returns the entry cached under key. The returned schedules are
// independent copies; mutating them cannot corrupt the cache.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return Entry{}, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	if e.best >= 0 {
		return Entry{Winner: copySchedule(e.pool[e.best])}, true
	}
	return Entry{Pool: copyPool(e.pool)}, true
}

// Put stores a ranked candidate pool under key with no winner, replacing
// any entry there and evicting the least-recently-used entries past
// capacity. The pool is copied in, so later caller mutation cannot
// corrupt the cache.
func (c *Cache) Put(key string, pool []core.Schedule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		e.pool, e.best = copyPool(pool), -1
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, pool: copyPool(pool), best: -1})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.evictions++
	}
}

// SetBest records that the candidate at index best of the pool cached
// under key won autotuning. It updates the entry in place: it is not a
// store and leaves the entry's recency alone. When the entry has been
// evicted since, the winner is dropped.
func (c *Cache) SetBest(key string, best int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).best = best
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

// copyPool deep-copies a pool into one backing array; each copied
// assignment is capped at its length, so appending to one cannot
// overwrite the next.
func copyPool(pool []core.Schedule) []core.Schedule {
	n := 0
	for _, s := range pool {
		n += len(s.Assign)
	}
	buf := make([]core.PUClass, 0, n)
	out := make([]core.Schedule, len(pool))
	for i, s := range pool {
		start := len(buf)
		buf = append(buf, s.Assign...)
		out[i].Assign = buf[start:len(buf):len(buf)]
	}
	return out
}
