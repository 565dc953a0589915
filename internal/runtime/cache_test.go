package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/schedcache"
)

// holdAllEngine blocks every execution wave until released (or the wave's
// context dies). Cache tests use it to freeze session progress so the
// schedule histories reflect exactly the synchronous admission sequence —
// no exit re-planning races into the comparison.
type holdAllEngine struct {
	inner pipeline.Engine
	gate  chan struct{}
}

func (h *holdAllEngine) Name() string { return "held-" + h.inner.Name() }

func (h *holdAllEngine) Run(ctx context.Context, p *pipeline.Plan, opts pipeline.Options) pipeline.Result {
	select {
	case <-h.gate:
	case <-ctx.Done():
		return pipeline.Result{Err: ctx.Err()}
	}
	return h.inner.Run(ctx, p, opts)
}

// admitPair admits octree then alexnet-sparse into a held runtime and
// returns both sessions' schedule histories as observed right after the
// second admission (before any wave or exit can run), with how many
// planning passes ran the profiler, solver and autotuner.
func admitPair(t *testing.T, cache *schedcache.Cache) ([][]core.Schedule, int) {
	t.Helper()
	hold := &holdAllEngine{inner: pipeline.SimEngine{}, gate: make(chan struct{})}
	rt := mustRuntime(t, Config{
		Device: mustDevice(t, "oneplus11"),
		Engine: hold,
		Cache:  cache,
	})
	defer rt.Close()
	sA, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 8, WaveTasks: 4, Seed: 11})
	if err != nil {
		t.Fatalf("Admit A: %v", err)
	}
	sB, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 8, WaveTasks: 4, Seed: 13})
	if err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	rt.mu.Lock()
	solves := rt.solves
	rt.mu.Unlock()
	return [][]core.Schedule{sA.Schedules(), sB.Schedules()}, solves
}

func historiesEqual(a, b [][]core.Schedule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestCacheHitSchedulesByteIdentical is the cache's acceptance pin, in
// exact counts: 16 runtimes replay the same admission sequence over one
// shared cache. The sequence plans 3 times (A's admit, B's admit, A's
// re-plan), so round 1 misses and stores 3 times and every later round
// hits 3 times, runs no profiling, solving or autotuning, and leaves
// every session's schedule history equal to round 1's.
func TestCacheHitSchedulesByteIdentical(t *testing.T) {
	const rounds = 16
	cache := schedcache.New(64, schedcache.DefaultBucket)
	var cold [][]core.Schedule
	prev := cache.Stats()
	for round := 1; round <= rounds; round++ {
		hist, solves := admitPair(t, cache)
		st := cache.Stats()
		hits, misses, stores := st.Hits-prev.Hits, st.Misses-prev.Misses, st.Stores-prev.Stores
		prev = st
		if round == 1 {
			cold = hist
			if hits != 0 || misses != 3 || stores != 3 || solves != 3 {
				t.Fatalf("round 1: %d hits, %d misses, %d stores, %d solves; want 0/3/3/3", hits, misses, stores, solves)
			}
			continue
		}
		if hits != 3 || misses != 0 || stores != 0 || solves != 0 {
			t.Fatalf("round %d: %d hits, %d misses, %d stores, %d solves; want 3/0/0/0", round, hits, misses, stores, solves)
		}
		if !historiesEqual(cold, hist) {
			t.Fatalf("round %d: cached schedules diverge from the cold solves:\ncold: %v\nwarm: %v", round, cold, hist)
		}
	}
}

// TestCacheDisabledMatchesEnabledAtZeroEnv pins the bridging identity:
// with an empty interference environment (the quantization fixed point),
// an uncached runtime and a cached one pick the same initial schedule —
// enabling the cache does not perturb first-admission planning.
func TestCacheDisabledMatchesEnabledAtZeroEnv(t *testing.T) {
	plan := func(cache *schedcache.Cache) core.Schedule {
		rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), Cache: cache})
		defer rt.Close()
		s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 4, WaveTasks: 4, Seed: 5})
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		sc := s.Schedules()[0]
		s.Wait()
		return sc
	}
	uncached := plan(nil)
	cached := plan(schedcache.New(8, schedcache.DefaultBucket))
	if !uncached.Equal(cached) {
		t.Fatalf("cache changed the empty-env solve: %v vs %v", uncached, cached)
	}
}

// TestPinnedScheduleNeverReplannedWithCache is the cache-enabled variant
// of the pin contract: even when a pre-warmed cache could supply a
// schedule for every environment, a pinned session is never re-planned
// and its admission never consults the cache.
func TestPinnedScheduleNeverReplannedWithCache(t *testing.T) {
	cache := schedcache.New(64, schedcache.DefaultBucket)
	// Pre-warm: run the exact churn sequence once so every (app, env) key
	// the scenario can produce is resident in the cache.
	admitPair(t, cache)
	warmed := cache.Stats()

	dev := mustDevice(t, "oneplus11")
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), dev.GPUClass())
	rt := mustRuntime(t, Config{Device: dev, Cache: cache})
	defer rt.Close()
	sA, err := rt.Admit(app, AdmitOptions{Tasks: 80, WaveTasks: 4, Seed: 11, Schedule: &pin})
	if err != nil {
		t.Fatalf("Admit pinned: %v", err)
	}
	pinnedAdmit := cache.Stats()
	if pinnedAdmit.Hits != warmed.Hits || pinnedAdmit.Misses != warmed.Misses {
		t.Fatalf("pinned admission consulted the cache: %+v -> %+v", warmed, pinnedAdmit)
	}
	if _, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 24, WaveTasks: 4, Seed: 13}); err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	if got := sA.Replans(); got != 0 {
		t.Fatalf("pinned session re-planned %d times despite cache", got)
	}
	if !sA.Schedule().Equal(pin) {
		t.Fatalf("pinned schedule drifted to %v", sA.Schedule())
	}
	if res := sA.Wait(); res.Err != nil {
		t.Fatalf("pinned session error: %v", res.Err)
	}
}

// TestReplanDeltaSkipsSolves: with a skip threshold above any
// environment shift the churn can produce, residents are never re-solved
// — the skip counter moves instead — while a zero threshold re-plans as
// before.
func TestReplanDeltaSkipsSolves(t *testing.T) {
	run := func(delta float64) (replans, skipped int) {
		hold := &holdAllEngine{inner: pipeline.SimEngine{}, gate: make(chan struct{})}
		rt := mustRuntime(t, Config{
			Device:      mustDevice(t, "oneplus11"),
			Engine:      hold,
			ReplanDelta: delta,
		})
		defer rt.Close()
		sA, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 8, WaveTasks: 4})
		if err != nil {
			t.Fatalf("Admit A: %v", err)
		}
		if _, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 8, WaveTasks: 4}); err != nil {
			t.Fatalf("Admit B: %v", err)
		}
		return sA.Replans(), rt.ReplansSkipped()
	}
	replans, skipped := run(2.0) // L∞ over [0,1] intensities can never reach 2
	if skipped < 1 {
		t.Fatalf("no re-plan skipped under an unreachable delta (skipped=%d)", skipped)
	}
	if replans != 0 {
		t.Fatalf("resident re-planned %d times despite delta skip", replans)
	}
	if _, skipped = run(0); skipped != 0 {
		t.Fatalf("delta 0 skipped %d re-plans", skipped)
	}
}

// TestCacheChurnStress is the churn-heavy -race scenario: repeated
// admit/exit rounds over a shared cache, asserting the cache invariants
// (counter consistency, capacity bound) and goroutine cleanliness
// afterwards.
func TestCacheChurnStress(t *testing.T) {
	before := goruntime.NumGoroutine()
	cache := schedcache.New(8, schedcache.DefaultBucket) // small: force evictions
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		rt := mustRuntime(t, Config{
			Device:       mustDevice(t, "oneplus11"),
			BWHeadroom:   1e9,
			CoreHeadroom: 1e9,
			Cache:        cache,
			ReplanDelta:  0.02,
		})
		sessions := make([]*Session, 0, 3)
		for i, name := range []string{"octree", "alexnet-sparse", "octree"} {
			s, err := rt.Admit(mustApp(t, name), AdmitOptions{
				Name:  fmt.Sprintf("r%d-%d", round, i),
				Tasks: 6, WaveTasks: 3,
				Seed: int64(i) * 101, // fixed per slot so keys recur across rounds
			})
			if err != nil {
				t.Fatalf("round %d admit %s: %v", round, name, err)
			}
			sessions = append(sessions, s)
		}
		for _, s := range sessions {
			if res := s.Wait(); res.Err != nil {
				t.Fatalf("round %d session %s: %v", round, res.Name, res.Err)
			}
		}
		rt.Close()

		st := cache.Stats()
		if st.Size > st.Capacity {
			t.Fatalf("round %d: cache size %d exceeds capacity %d", round, st.Size, st.Capacity)
		}
		if st.Stores > st.Misses {
			t.Fatalf("round %d: %d stores > %d misses — a store without a preceding miss", round, st.Stores, st.Misses)
		}
		if st.Hits+st.Misses < st.Stores {
			t.Fatalf("round %d: inconsistent counters %+v", round, st)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("churn rounds with fixed seeds produced no cache hits: %+v", st)
	}
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("churn leaked goroutines: %d before, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
