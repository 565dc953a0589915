// Package schedcache memoizes planning results so re-planning leaves
// the runtime's admission hot path. The cache is keyed on a
// canonicalized (application fingerprint, device, quantized
// interference Env, planning knobs) tuple:
//
//   - the application fingerprint hashes the stage sequence and every
//     cost-model field, so two structurally identical graphs share
//     entries while any cost perturbation separates them;
//   - the interference environment is quantized into configurable
//     buckets before both keying *and* planning, so near-identical
//     environments resolve to the same key — and, because the solve
//     itself runs against the bucket's canonical representative, a
//     cache hit returns a schedule byte-identical to the cold solve it
//     replaces (pinned by the equivalence suite in internal/runtime);
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

// DefaultBucket is the Env quantization granularity: MemIntensity is
// rounded to the nearest multiple of this value. 0.05 keeps 20 buckets
// across the [0,1] intensity range — fine enough that planning against
// the bucket representative is indistinguishable from the raw
// environment at the noise level of the profiler, coarse enough that
// churn-adjacent environments actually collide.
const DefaultBucket = 0.05

// DefaultCapacity bounds the cache when the caller passes a
// non-positive capacity.
const DefaultCapacity = 512

// minBucket is the finest usable bucket width. Below it every
// environment already gets its own key, and near 1e-19 the bucket
// index of an intensity overflows an int, so distinct environments
// would share one. fleet.New and cli.PlannerFlags.Validate refuse a
// bucket below it.
const minBucket = 1e-9

// bucketIndex maps one intensity to its quantization bucket:
// round-to-nearest with ties away from zero, clamped into [0,1] first.
// NaN and negative values quantize to bucket 0 (a PR-2 regression guard:
// interference ratios once went NaN and must never reach a cache key),
// +Inf clamps to 1.
func bucketIndex(v, bucket float64) int {
	if math.IsNaN(v) || v <= 0 {
		return 0
	}
	if v > 1 {
		v = 1
	}
	return int(math.Floor(v/bucket + 0.5))
}

// normBucket resolves the bucket width: a width that is NaN, infinite
// or below minBucket selects DefaultBucket.
func normBucket(bucket float64) float64 {
	if !(bucket >= minBucket) || math.IsInf(bucket, 0) {
		return DefaultBucket
	}
	return bucket
}

// QuantizeEnv returns the canonical representative of env's quantization
// bucket: every class's MemIntensity rounded to the nearest multiple of
// bucket (clamped to [0,1], NaN-free), classes that quantize to zero
// dropped — so a nil Env, an empty Env, and an all-zero Env share one
// representative. The result is independent of map iteration order and
// never aliases the input. A bucket that is NaN, infinite or below 1e-9
// selects DefaultBucket.
func QuantizeEnv(env soc.Env, bucket float64) soc.Env {
	bucket = normBucket(bucket)
	out := soc.Env{}
	for _, c := range env.BusyClasses() {
		idx := bucketIndex(env[c].MemIntensity, bucket)
		if idx == 0 {
			continue
		}
		q := float64(idx) * bucket
		if q > 1 {
			q = 1
		}
		out[c] = soc.Load{MemIntensity: q}
	}
	return out
}

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
// renders the *bucket indices* (integers), not the quantized floats, so
// the key is immune to float-formatting drift; classes render in sorted
// order, so the key is independent of Env map iteration order. Key
// accepts raw or pre-quantized environments interchangeably: quantizing
// is idempotent at the index level.
func Key(fingerprint, device string, env soc.Env, bucket float64, knobs Knobs) string {
	bucket = normBucket(bucket)
	var b strings.Builder
	b.WriteString(fingerprint)
	b.WriteByte('|')
	b.WriteString(device)
	b.WriteString("|b=")
	b.WriteString(strconv.FormatFloat(bucket, 'g', -1, 64))
	b.WriteString("|env:")
	first := true
	for _, c := range env.BusyClasses() {
		idx := bucketIndex(env[c].MemIntensity, bucket)
		if idx == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%s=%d", c, idx)
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
	bucket    float64
	ll        *list.List               // front = most recently used
	items     map[string]*list.Element // key -> *entry element
	hits      uint64
	misses    uint64
	stores    uint64
	evictions uint64
}

// New builds an empty cache. A non-positive capacity selects
// DefaultCapacity; a bucket that is NaN, infinite or below 1e-9 selects
// DefaultBucket.
func New(capacity int, bucket float64) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		bucket:   normBucket(bucket),
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Bucket returns the Env quantization granularity planning must use so
// cached schedules stay byte-identical to cold solves.
func (c *Cache) Bucket() float64 { return c.bucket }

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

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
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
