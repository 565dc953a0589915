package runtime

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
)

// syntheticApp builds an n-stage application with random costs and
// no-op kernels.
func syntheticApp(rng *rand.Rand, n int) *core.Application {
	kern := func(*core.TaskObject, core.ParallelFor) {}
	stages := make([]core.Stage, n)
	for i := range stages {
		stages[i] = core.Stage{
			Name: string(rune('a' + i)),
			CPU:  kern, GPU: kern,
			Cost: core.CostSpec{
				FLOPs:            math.Pow(10, 4+4*rng.Float64()),
				Bytes:            math.Pow(10, 3+5*rng.Float64()) * float64(rng.Intn(2)),
				ParallelFraction: rng.Float64(),
				Irregularity:     rng.Float64(),
				Divergence:       rng.Float64(),
				WorkItems:        float64(rng.Intn(1 << 16)),
				Dispatches:       float64(rng.Intn(4)),
			},
		}
	}
	return &core.Application{
		Name:    "synthetic",
		Stages:  stages,
		NewTask: func() *core.TaskObject { return &core.TaskObject{} },
	}
}

// contiguousPlans is the brute-force reference for the schedule space:
// it walks all M^N stage→class vectors, keeps those where no class
// reopens, and compiles each with pipeline.NewPlan.
func contiguousPlans(t testing.TB, app *core.Application, dev *soc.Device) []*pipeline.Plan {
	t.Helper()
	classes := dev.Classes()
	n, m := len(app.Stages), len(classes)
	idx := make([]int, n)
	var out []*pipeline.Plan
	for {
		seen, ok := 0, true
		for i, c := range idx {
			if i > 0 && idx[i-1] == c {
				continue
			}
			if seen&(1<<c) != 0 {
				ok = false
				break
			}
			seen |= 1 << c
		}
		if ok {
			assign := make([]core.PUClass, n)
			for i, c := range idx {
				assign[i] = classes[c]
			}
			p, err := pipeline.NewPlan(app, dev, core.Schedule{Assign: assign})
			if err != nil {
				t.Fatalf("NewPlan(%v): %v", assign, err)
			}
			out = append(out, p)
		}
		i := n - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < m {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// floorOracle is the smallest planDemand per resource over plans.
func floorOracle(plans []*pipeline.Plan) demand {
	f := demand{bwGBs: math.Inf(1), cores: math.Inf(1)}
	for _, p := range plans {
		d := planDemand(p)
		f.bwGBs = math.Min(f.bwGBs, d.bwGBs)
		f.cores = math.Min(f.cores, d.cores)
	}
	return f
}

// sameDemandBits reports bit-for-bit equality of two claims.
func sameDemandBits(a, b demand) bool {
	return math.Float64bits(a.bwGBs) == math.Float64bits(b.bwGBs) &&
		math.Float64bits(a.cores) == math.Float64bits(b.cores)
}

// TestDemandFloorMatchesOracle pins the floor to the brute-force
// minimum of planDemand over the contiguous space, bit for bit, for
// every catalog app and device and for random synthetic apps.
func TestDemandFloorMatchesOracle(t *testing.T) {
	var apps []*core.Application
	for _, name := range []string{"octree", "vision", "alexnet-dense", "alexnet-sparse"} {
		apps = append(apps, mustApp(t, name))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		apps = append(apps, syntheticApp(rng, 1+rng.Intn(7)))
	}
	for _, dev := range soc.Catalog() {
		for i, app := range apps {
			got, want := demandFloor(app, dev), floorOracle(contiguousPlans(t, app, dev))
			if !sameDemandBits(got, want) {
				t.Errorf("%s app %d (%s, %d stages): floor %+v, oracle %+v", dev.Name, i, app.Name, len(app.Stages), got, want)
			}
		}
	}
}

// TestDemandFloorNaNIntensityNeverRefuses: CostSpec.Validate lets a NaN
// byte count through, its intensity is NaN, and no planned schedule's
// bandwidth total then compares greater than capacity. The floor must
// not refuse such an app either.
func TestDemandFloorNaNIntensityNeverRefuses(t *testing.T) {
	app := syntheticApp(rand.New(rand.NewSource(1)), 3)
	app.Stages[1].Cost.Bytes = math.NaN()
	if err := app.Validate(); err != nil {
		t.Fatalf("app with NaN bytes no longer validates (%v); the case is unreachable", err)
	}
	f := demandFloor(app, mustDevice(t, "jetson"))
	if !math.IsInf(f.bwGBs, -1) || !math.IsInf(f.cores, -1) {
		t.Fatalf("floor %+v, want -Inf on both resources", f)
	}
}

// TestPlanDemandAllocFree pins the demand arithmetic, which runs once
// per resident on every Admit, to zero allocations.
func TestPlanDemandAllocFree(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	plans := contiguousPlans(t, mustApp(t, "octree"), dev)
	p := plans[len(plans)/2]
	if allocs := testing.AllocsPerRun(50, func() { planDemand(p) }); allocs != 0 {
		t.Errorf("planDemand allocates %v times per call", allocs)
	}
}

// TestFloorRefusalSkipsPlanning: a pinned resident holding every core
// of a headroom-1 Jetson leaves no room for any schedule of a
// newcomer, so Admit refuses on the floor. The refusal says the demand
// is the minimum over all schedules, in the error and in the Reject
// event, and no plan reaches the schedule cache.
func TestFloorRefusalSkipsPlanning(t *testing.T) {
	dev := mustDevice(t, "jetson")
	stream := obs.NewStream(1 << 10)
	cache := schedcache.New(16, 0)
	rt := mustRuntime(t, Config{Device: dev, BWHeadroom: 100, CoreHeadroom: 1, Events: stream, Cache: cache})
	defer rt.Close()

	vision := mustApp(t, "vision")
	pin := core.Schedule{Assign: make([]core.PUClass, len(vision.Stages))}
	for i := range pin.Assign {
		pin.Assign[i] = core.ClassGPU
	}
	pin.Assign[0] = core.ClassBig
	if _, err := rt.Admit(vision, AdmitOptions{Tasks: 8, WaveTasks: 4, Schedule: &pin, Hold: true}); err != nil {
		t.Fatalf("pinned resident: %v", err)
	}

	_, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("want *AdmissionError, got %v", err)
	}
	if !adm.Floor || adm.Resource != ResourceCores || adm.Demand <= adm.Capacity {
		t.Fatalf("refusal %+v, want a floor refusal on %s", adm, ResourceCores)
	}
	const why = "minimum pu-cores demand over all schedules"
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
	if st := cache.Stats(); st.Hits+st.Misses+st.Stores != 0 {
		t.Errorf("cache %+v: a floor refusal planned", st)
	}
}

// FuzzAdmitFloor checks the floor's two contracts on a random app and
// device: (a) it is the brute-force minimum of planDemand over the
// contiguous space, bit for bit; (b) under random residents and
// headroom, a floor refusal is a refusal of every schedule in the space
// and of the schedule the planner actually picks.
func FuzzAdmitFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, device, stages, residents, headroom uint8) {
		rng := rand.New(rand.NewSource(seed))
		dev := soc.Catalog()[int(device)%len(soc.Catalog())]
		app := syntheticApp(rng, 1+int(stages)%7)
		space := contiguousPlans(t, app, dev)
		floor := demandFloor(app, dev)
		if want := floorOracle(space); !sameDemandBits(floor, want) {
			t.Fatalf("floor %+v, oracle %+v", floor, want)
		}

		h := 0.25 + float64(headroom)/64
		rt := mustRuntime(t, Config{Device: dev, BWHeadroom: h, CoreHeadroom: h, K: 4, Seed: seed})
		var ds []demand
		env := soc.Env{}
		for i := 0; i < int(residents)%4; i++ {
			other := contiguousPlans(t, syntheticApp(rng, 1+rng.Intn(5)), dev)
			p := other[rng.Intn(len(other))]
			ds = append(ds, planDemand(p))
			addPlanEnv(env, p)
		}
		if rt.checkFit(app.Name, rt.floorLocked(app, schedcache.Fingerprint(app)), ds, true) == nil {
			return
		}
		for _, p := range space {
			if rt.checkFit(app.Name, planDemand(p), ds, false) == nil {
				t.Fatalf("floor refused, but %s fits", p.Schedule)
			}
		}
		plan, err := rt.planLocked(app, schedcache.Fingerprint(app), env, AdmitOptions{}.withDefaults(app, 0))
		if err != nil {
			t.Fatal(err)
		}
		if rt.checkFit(app.Name, planDemand(plan), ds, false) == nil {
			t.Fatalf("floor refused, but the planned %s fits", plan.Schedule)
		}
	})
}
