package runtime

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
)

// TestPoolDemandMatchesPlanDemand: the pool check prices a candidate
// from its schedule alone, and that price is bit for bit the planDemand
// of the plan pipeline.NewPlan compiles from it, for every candidate of
// every catalog app on every device.
func TestPoolDemandMatchesPlanDemand(t *testing.T) {
	for _, dev := range soc.Catalog() {
		for _, name := range []string{"octree", "vision", "alexnet-dense", "alexnet-sparse"} {
			app := mustApp(t, name)
			opt := sched.New(app, dev, profiler.ProfileBoth(app, dev, profiler.Config{Reps: DefaultProfileReps, Seed: 3}))
			cands := opt.Candidates(sched.BetterTogether)
			if len(cands) == 0 {
				t.Fatalf("%s on %s: no candidates", name, dev.Name)
			}
			for _, c := range cands {
				plan, err := pipeline.NewPlan(app, dev, c.Schedule)
				if err != nil {
					t.Fatal(err)
				}
				got, want := scheduleDemand(dev, c.Schedule.Chunks(), appIntensity(app, dev)), planDemand(plan)
				if !sameDemandBits(got, want) {
					t.Errorf("%s on %s, %s: pool prices %+v, plan demand %+v", name, dev.Name, c.Schedule, got, want)
				}
			}
		}
	}
}

// TestPoolRefusalSkipsAutotune: on a Pixel 7a with half its cores as
// capacity, every schedule octree's planner ranks claims more cores than
// that, though its floor (one small class) fits. Admit refuses before
// autotuning: the refusal and its Reject event say so, the cache missed
// once and stored the ranked pool, and no planning pass reached
// Autotune.
func TestPoolRefusalSkipsAutotune(t *testing.T) {
	stream := obs.NewStream(1 << 10)
	cache := schedcache.New(16)
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), BWHeadroom: 100, CoreHeadroom: 0.5, Events: stream, Cache: cache})
	defer rt.Close()

	_, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("want *AdmissionError, got %v", err)
	}
	if adm.Floor || adm.Pool != DefaultReplanK || adm.Resource != ResourceCores || adm.Demand <= adm.Capacity {
		t.Fatalf("refusal %+v, want a pool refusal of %d candidates on %s", adm, DefaultReplanK, ResourceCores)
	}
	const why = "rejected before autotuning"
	if !strings.Contains(adm.Error(), why) {
		t.Errorf("error %q does not say %q", adm.Error(), why)
	}
	var rejects []obs.Event
	for _, e := range stream.Recent(0) {
		if e.Kind == obs.KindReject {
			rejects = append(rejects, e)
		}
	}
	if len(rejects) != 1 || !strings.Contains(rejects[0].Detail, why) {
		t.Errorf("reject events %+v, want one whose detail says %q", rejects, why)
	}
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 1 || st.Stores != 1 {
		t.Errorf("cache %+v, want one miss and the pool stored", st)
	}
	rt.mu.Lock()
	solves, rejected := rt.solves, rt.rejected
	rt.mu.Unlock()
	if solves != 0 || rejected != 1 {
		t.Errorf("%d autotuned passes and %d refusals, want 0 and 1", solves, rejected)
	}
}

// outcome names where an Admit ended.
type outcome int

const (
	admitted outcome = iota
	refusedFloor
	refusedPool
	refusedPlanned
)

func (o outcome) String() string {
	return [...]string{"admission", "floor refusal", "pool refusal", "planned refusal"}[o]
}

// checkPoolAgainstUnpruned admits app into a runtime on dev that holds
// up to residents pinned, held synthetic sessions under headroom h, and
// checks the result against the path without the pool check, written
// out from its parts: profile, Optimize (which autotunes every
// candidate), compile the winner and check it with checkFit. Admit must
// refuse exactly when that path refuses, and admit its winner. The
// refusal must come at the earliest point that decides it: the floor
// when the floor does not fit, else the pool when no candidate's plan
// fits, else the winner's check. The path plans from the runtime's seed
// alone while Admit gets a random session seed, so a session seed that
// changed the plan would fail here too. With cached set, Admit plans
// through a schedule cache.
func checkPoolAgainstUnpruned(t *testing.T, rng *rand.Rand, dev *soc.Device, app *core.Application, residents int, h float64, cached bool) outcome {
	t.Helper()
	cfg := Config{Device: dev, BWHeadroom: h, CoreHeadroom: h * (0.5 + rng.Float64()), Seed: rng.Int63n(1000)}
	if cached {
		cfg.Cache = schedcache.New(16)
	}
	rt := mustRuntime(t, cfg)
	defer rt.Close()
	for i := 0; i < residents; i++ {
		space := contiguousPlans(t, syntheticApp(rng, 1+rng.Intn(5)), dev)
		p := space[rng.Intn(len(space))]
		pin := p.Schedule
		_, err := rt.Admit(p.App, AdmitOptions{Tasks: 4, WaveTasks: 4, Schedule: &pin, Hold: true})
		var adm *AdmissionError
		if err != nil && !errors.As(err, &adm) {
			t.Fatalf("pinned resident: %v", err)
		}
	}

	rt.mu.Lock()
	ds, env := rt.residentDemandsLocked(), rt.envLocked(nil)
	rt.mu.Unlock()
	seed := rng.Int63n(1000)
	opt := sched.New(app, dev, profiler.ProfileBoth(app, dev, profiler.Config{
		Reps: DefaultProfileReps, Seed: cfg.Seed, BaseEnv: env,
	}))
	opt.K = DefaultReplanK
	cands, _, best, err := opt.Optimize(sched.BetterTogether, pipeline.Options{
		Tasks: DefaultAutotuneTasks, Warmup: 2, Seed: cfg.Seed, BaseEnv: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	refused := func(s core.Schedule) bool {
		plan, err := pipeline.NewPlan(app, dev, s)
		if err != nil {
			t.Fatal(err)
		}
		return rt.checkFit(app.Name, planDemand(plan), ds) != nil
	}
	want := admitted
	switch {
	case rt.checkFit(app.Name, demandFloor(app, dev), ds) != nil:
		want = refusedFloor
	case !slices.ContainsFunc(cands, func(c sched.Candidate) bool { return !refused(c.Schedule) }):
		want = refusedPool
	case refused(best.Schedule):
		want = refusedPlanned
	}

	s, err := rt.Admit(app, AdmitOptions{Tasks: 4, WaveTasks: 4, Seed: seed, Hold: true})
	got := admitted
	var adm *AdmissionError
	switch {
	case errors.As(err, &adm) && adm.Floor:
		got = refusedFloor
	case errors.As(err, &adm) && adm.Pool > 0:
		got = refusedPool
	case errors.As(err, &adm):
		got = refusedPlanned
	case err != nil:
		t.Fatal(err)
	case !s.Schedules()[0].Equal(best.Schedule):
		t.Fatalf("Admit admitted %s, the unpruned path %s", s.Schedules()[0], best.Schedule)
	}
	if got != want {
		t.Fatalf("Admit ended at %s (%v), the unpruned path at %s (winner %s)", got, err, want, best.Schedule)
	}
	return got
}

// TestPoolRefusalMatchesUnpruned is the pool check's differential test
// over the catalog apps, random residents and random headroom, with and
// without a schedule cache. The trials must reach every outcome, so a
// check that never refused (or always did) would fail here.
func TestPoolRefusalMatchesUnpruned(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	apps := []*core.Application{mustApp(t, "octree"), mustApp(t, "vision")}
	var seen [refusedPlanned + 1]int
	for i := 0; i < 48; i++ {
		dev := soc.Catalog()[rng.Intn(len(soc.Catalog()))]
		seen[checkPoolAgainstUnpruned(t, rng, dev, apps[rng.Intn(len(apps))], rng.Intn(4), 0.25+2*rng.Float64(), i%2 == 1)]++
	}
	if seen[admitted] == 0 || seen[refusedFloor] == 0 || seen[refusedPool] == 0 || seen[refusedPlanned] == 0 {
		t.Fatalf("outcomes admitted/floor/pool/planned = %v, want each at least once", seen)
	}
}

// FuzzPoolRefusal is the differential test over random synthetic apps,
// devices, residents and headroom.
func FuzzPoolRefusal(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, device, stages, residents, headroom uint8) {
		rng := rand.New(rand.NewSource(seed))
		dev := soc.Catalog()[int(device)%len(soc.Catalog())]
		app := syntheticApp(rng, 1+int(stages)%7)
		checkPoolAgainstUnpruned(t, rng, dev, app, int(residents)%4, 0.25+float64(headroom)/64, seed%2 == 0)
	})
}
