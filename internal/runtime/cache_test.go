package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
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
	cache := schedcache.New(64)
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

// TestCachePlansOnce pins "plan once per (app, node, environment)" in
// counts. Two admissions of one app into the same environment with
// different session seeds share one cache entry: the first misses and
// plans, the second hits and runs no planning pass. A pool-refused
// admission stores its ranked pool, so repeating it on an unchanged
// runtime hits, profiles and ranks nothing, autotunes nothing, and ends
// in the same refusal.
func TestCachePlansOnce(t *testing.T) {
	stats := func(rt *Runtime) (schedcache.Stats, int) {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return rt.cfg.Cache.Stats(), rt.solves
	}

	rt := mustRuntime(t, Config{Device: mustDevice(t, "oneplus11"), Cache: schedcache.New(16), Seed: 5})
	defer rt.Close()
	app := mustApp(t, "octree")
	var scheds []core.Schedule
	for _, seed := range []int64{11, 9001} {
		s, err := rt.Admit(app, AdmitOptions{Tasks: 4, WaveTasks: 4, Seed: seed, Hold: true})
		if err != nil {
			t.Fatalf("admit with seed %d: %v", seed, err)
		}
		scheds = append(scheds, s.Schedule())
		s.Stop() // departs, so the next admission sees the same environment
	}
	st, solves := stats(rt)
	if st.Misses != 1 || st.Hits != 1 || st.Stores != 1 || solves != 1 {
		t.Fatalf("two seeds, one environment: %d misses, %d hits, %d stores, %d solves; want 1/1/1/1", st.Misses, st.Hits, st.Stores, solves)
	}
	if !scheds[0].Equal(scheds[1]) {
		t.Fatalf("the session seed changed the plan: %v vs %v", scheds[0], scheds[1])
	}

	rt = mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), BWHeadroom: 100, CoreHeadroom: 0.5, Cache: schedcache.New(16)})
	defer rt.Close()
	var refusals []AdmissionError
	for i, seed := range []int64{0, 77} {
		_, err := rt.Admit(app, AdmitOptions{Tasks: 4, WaveTasks: 4, Seed: seed})
		var adm *AdmissionError
		if !errors.As(err, &adm) || adm.Pool == 0 {
			t.Fatalf("admission %d: %v, want a pool refusal", i, err)
		}
		refusals = append(refusals, *adm)
		st, solves := stats(rt)
		if st.Misses != 1 || st.Hits != uint64(i) || st.Stores != 1 || solves != 0 {
			t.Fatalf("after refusal %d: %d misses, %d hits, %d stores, %d solves; want 1/%d/1/0", i, st.Misses, st.Hits, st.Stores, solves, i)
		}
	}
	if refusals[0] != refusals[1] {
		t.Fatalf("the cached pool refused differently: %+v, then %+v", refusals[0], refusals[1])
	}
}

// TestCacheOnIdenticalToOff is the cache's transparency property: two
// runtimes on one Config, one planning through an 8-entry schedule cache
// small enough to evict, replay one random sequence of admissions
// (catalog app, seed, held or not), starts and departures. At every step
// they must agree on whether the admission was refused and on every
// session's schedule history. Refusal texts are not compared: a cache
// hit skips the pool check by design, so the same refusal can come from
// the planned schedule's check instead. Waves never run (the engine
// holds them), so departures are the only exits and the sequence is the
// whole input.
func TestCacheOnIdenticalToOff(t *testing.T) {
	apps := make([]*core.Application, len(btapps.Names))
	for i, name := range btapps.Names {
		apps[i] = mustApp(t, name)
	}
	type pair struct{ off, on *Session }
	rng := rand.New(rand.NewSource(34))
	var hits, evictions, admitted, refused int
	for trial := 0; trial < 12; trial++ {
		h := 0.5 + 3*rng.Float64()
		cfg := Config{
			Device:       soc.Catalog()[rng.Intn(len(soc.Catalog()))],
			BWHeadroom:   h,
			CoreHeadroom: h * (0.5 + rng.Float64()),
			Seed:         rng.Int63n(100),
		}
		off, on := cfg, cfg
		off.Engine = &holdAllEngine{inner: pipeline.SimEngine{}, gate: make(chan struct{})}
		on.Engine = &holdAllEngine{inner: pipeline.SimEngine{}, gate: make(chan struct{})}
		on.Cache = schedcache.New(8)
		rtOff, rtOn := mustRuntime(t, off), mustRuntime(t, on)
		var live, all []pair
		for step := 0; step < 32; step++ {
			switch op := rng.Intn(4); {
			case op < 2 || len(live) == 0:
				app := apps[rng.Intn(len(apps))]
				opts := AdmitOptions{Tasks: 4, WaveTasks: 4, Seed: rng.Int63n(3), Hold: rng.Intn(2) == 0}
				sOff, errOff := rtOff.Admit(app, opts)
				sOn, errOn := rtOn.Admit(app, opts)
				for _, err := range []error{errOff, errOn} {
					if err != nil && !errors.As(err, new(*AdmissionError)) {
						t.Fatalf("trial %d step %d: admit %s: %v", trial, step, app.Name, err)
					}
				}
				if (errOff == nil) != (errOn == nil) {
					t.Fatalf("trial %d step %d: admit %s: cache off %v, cache on %v", trial, step, app.Name, errOff, errOn)
				}
				if errOff != nil {
					refused++
					break
				}
				admitted++
				live = append(live, pair{sOff, sOn})
				all = append(all, pair{sOff, sOn})
			case op == 2:
				p := live[rng.Intn(len(live))]
				p.off.Start()
				p.on.Start()
			default:
				i := rng.Intn(len(live))
				live[i].off.Stop()
				live[i].on.Stop()
				live = slices.Delete(live, i, i+1)
			}
			for _, p := range all {
				if a, b := p.off.Schedules(), p.on.Schedules(); !slices.EqualFunc(a, b, core.Schedule.Equal) {
					t.Fatalf("trial %d step %d: %s's schedules diverge:\ncache off: %v\ncache on:  %v", trial, step, p.off.Name(), a, b)
				}
			}
		}
		rtOff.Close()
		rtOn.Close()
		st := on.Cache.Stats()
		hits += int(st.Hits)
		evictions += int(st.Evictions)
	}
	if hits == 0 || evictions == 0 || admitted == 0 || refused == 0 {
		t.Fatalf("%d hits, %d evictions, %d admissions, %d refusals; want each at least once", hits, evictions, admitted, refused)
	}
}

// TestPinnedScheduleNeverReplannedWithCache is the cache-enabled variant
// of the pin contract: even when a pre-warmed cache could supply a
// schedule for every environment, a pinned session is never re-planned
// and its admission never consults the cache.
func TestPinnedScheduleNeverReplannedWithCache(t *testing.T) {
	cache := schedcache.New(64)
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
// (counter consistency, capacity bound), cache hits in every round, and
// goroutine cleanliness afterwards. Each round admits held and starts
// its sessions after its last Admit, so the admissions' keys recur round
// to round whatever the wall time between two Admits; exits then churn
// the cache concurrently.
//
// Whether a round hits depends on which slot departs first, not on
// timing: a round's admissions look up 6 keys in the 4-entry cache, so
// only the 4 looked up last survive them, and whether a departure
// re-plan looks one of those up depends on the order. Slots 1 and 2
// therefore run concurrently, and slot 0 starts once slot 2 has
// departed, concurrently with slot 1 if it still runs. Every departure
// order left has a hit in every round; the orders that depart slot 0
// first have none in any.
func TestCacheChurnStress(t *testing.T) {
	before := goruntime.NumGoroutine()
	cache := schedcache.New(4) // small: force evictions
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
				Seed: int64(i) * 101, // session seeds do not enter planning or its keys
				Hold: true,
			})
			if err != nil {
				t.Fatalf("round %d admit %s: %v", round, name, err)
			}
			sessions = append(sessions, s)
		}
		hits := cache.Stats().Hits
		wait := func(s *Session) {
			if res := s.Wait(); res.Err != nil {
				t.Fatalf("round %d session %s: %v", round, res.Name, res.Err)
			}
		}
		sessions[1].Start()
		sessions[2].Start()
		wait(sessions[2])
		sessions[0].Start()
		wait(sessions[0])
		wait(sessions[1])
		rt.Close()

		st := cache.Stats()
		if st.Hits == hits {
			t.Fatalf("round %d: no cache hit with slot 2 departing before slot 0: %+v", round, st)
		}
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
	deadline := time.Now().Add(3 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("churn leaked goroutines: %d before, %d after", before, goruntime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
