package schedcache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"bettertogether/internal/core"
	"bettertogether/internal/soc"
)

// costApp builds a planning-identity-only application (Fingerprint never
// reads kernels or task factories).
func costApp(name string, costs ...core.CostSpec) *core.Application {
	app := &core.Application{Name: name}
	for i, c := range costs {
		app.Stages = append(app.Stages, core.Stage{Name: fmt.Sprintf("s%d", i), Cost: c})
	}
	return app
}

// TestKeyMapOrderIndependent is the PR-2 ULP/iteration-order guard:
// building the same environment through different insertion and overlay
// orders must yield the same key.
func TestKeyMapOrderIndependent(t *testing.T) {
	mk := func(order []core.PUClass, vals map[core.PUClass]float64) soc.Env {
		env := soc.Env{}
		for _, c := range order {
			env.Add(c, soc.Load{MemIntensity: vals[c]})
		}
		return env
	}
	vals := map[core.PUClass]float64{
		core.ClassBig:    0.31,
		core.ClassLittle: 0.12,
		core.ClassGPU:    0.77,
	}
	orders := [][]core.PUClass{
		{core.ClassBig, core.ClassLittle, core.ClassGPU},
		{core.ClassGPU, core.ClassBig, core.ClassLittle},
		{core.ClassLittle, core.ClassGPU, core.ClassBig},
	}
	ref := Key("fp", "dev", mk(orders[0], vals), Knobs{})
	for _, o := range orders[1:] {
		if k := Key("fp", "dev", mk(o, vals), Knobs{}); k != ref {
			t.Fatalf("insertion order changed the key:\n%s\n%s", ref, k)
		}
	}
	// Split additions per class (0.2+0.11 vs 0.31) must agree too: Add
	// sums before Key sees the value.
	split := soc.Env{}
	split.Add(core.ClassBig, soc.Load{MemIntensity: 0.2})
	split.Add(core.ClassBig, soc.Load{MemIntensity: 0.11})
	split.Add(core.ClassLittle, soc.Load{MemIntensity: 0.12})
	split.Add(core.ClassGPU, soc.Load{MemIntensity: 0.77})
	if k := Key("fp", "dev", split, Knobs{}); k != ref {
		t.Fatalf("split addition changed the key:\n%s\n%s", ref, k)
	}
}

// TestKeyQuickCheckEnvEquality quick-checks the canonicalization
// property over random environments: two keys are equal if and only if
// the environments hold the same classes with bit-equal intensities. A
// class present at zero load is not an absent class: the DVFS governor
// counts it as busy.
func TestKeyQuickCheckEnvEquality(t *testing.T) {
	classes := []core.PUClass{core.ClassBig, core.ClassLittle, core.ClassGPU}
	key := func(env soc.Env) string { return Key("fp", "dev", env, Knobs{}) }
	if key(soc.Env{}) == key(soc.Env{core.ClassGPU: {}}) {
		t.Fatal("a class present at zero load keys like an absent class")
	}
	if key(soc.Env{core.ClassGPU: {MemIntensity: 0.5}}) ==
		key(soc.Env{core.ClassGPU: {MemIntensity: math.Nextafter(0.5, 1)}}) {
		t.Fatal("intensities one ULP apart share a key")
	}
	f := func(raw [3]float64, inA, inB [3]bool, perturb [3]uint8) bool {
		a, b := soc.Env{}, soc.Env{}
		same := true
		for i, c := range classes {
			v := math.Abs(raw[i])
			v -= math.Floor(v) // into [0,1)
			w := v
			switch perturb[i] % 4 {
			case 1:
				w = math.Nextafter(v, 1)
			case 2:
				w = 0
			}
			if inA[i] {
				a[c] = soc.Load{MemIntensity: v}
			}
			if inB[i] {
				b[c] = soc.Load{MemIntensity: w}
			}
			if inA[i] != inB[i] || (inA[i] && math.Float64bits(v) != math.Float64bits(w)) {
				same = false
			}
		}
		return (key(a) == key(b)) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintEqualGraphsEqual(t *testing.T) {
	mk := func() *core.Application {
		return costApp("app",
			core.CostSpec{FLOPs: 1e6, Bytes: 2e5, ParallelFraction: 0.9, WorkItems: 4096},
			core.CostSpec{FLOPs: 3e6, Bytes: 1e5, Divergence: 0.2, Irregularity: 0.4, Dispatches: 3},
		)
	}
	if Fingerprint(mk()) != Fingerprint(mk()) {
		t.Fatal("structurally identical applications fingerprint differently")
	}
}

// TestFingerprintQuickCheckPerturbation quick-checks that perturbing any
// single cost field separates the fingerprints bit-exactly.
func TestFingerprintQuickCheckPerturbation(t *testing.T) {
	base := core.CostSpec{FLOPs: 1e6, Bytes: 2e5, ParallelFraction: 0.9,
		Divergence: 0.1, Irregularity: 0.3, WorkItems: 4096, Dispatches: 2}
	f := func(field uint8, delta float64) bool {
		if delta == 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
			return true // no perturbation, nothing to check
		}
		c := base
		switch field % 7 {
		case 0:
			c.FLOPs += delta
		case 1:
			c.Bytes += delta
		case 2:
			c.ParallelFraction += delta
		case 3:
			c.Divergence += delta
		case 4:
			c.Irregularity += delta
		case 5:
			c.WorkItems += delta
		case 6:
			c.Dispatches += delta
		}
		if c == base {
			return true // delta vanished in float addition
		}
		return Fingerprint(costApp("a", base, c)) != Fingerprint(costApp("a", base, base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSensitiveToStructure(t *testing.T) {
	c := core.CostSpec{FLOPs: 1}
	a := costApp("a", c, c)
	b := costApp("b", c, c) // name differs
	three := costApp("a", c, c, c)
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("application name not folded into fingerprint")
	}
	if Fingerprint(a) == Fingerprint(three) {
		t.Error("stage count not folded into fingerprint")
	}
}

func TestKeyKnobsSeparate(t *testing.T) {
	env := soc.Env{core.ClassGPU: {MemIntensity: 0.5}}
	base := Key("fp", "dev", env, Knobs{K: 8, Seed: 1})
	for name, k := range map[string]Knobs{
		"k":    {K: 9, Seed: 1},
		"seed": {K: 8, Seed: 2},
	} {
		if Key("fp", "dev", env, k) == base {
			t.Errorf("knob %s not folded into key", name)
		}
	}
	if Key("fp", "other", env, Knobs{K: 8, Seed: 1}) == base {
		t.Error("device not folded into key")
	}
	if !strings.HasPrefix(base, "fp|dev|") {
		t.Errorf("key %q does not lead with fingerprint|device", base)
	}
}

// pool builds a one-candidate pool.
func pool(classes ...core.PUClass) []core.Schedule {
	return []core.Schedule{{Assign: classes}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", pool(core.ClassBig))
	c.Put("b", pool(core.ClassGPU))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", pool(core.ClassLittle)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being refreshed")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 || st.Capacity != 2 || st.Stores != 3 {
		t.Fatalf("stats = %+v, want 1 eviction, size 2/2, 3 stores", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss", st)
	}
}

// TestCacheCopiesInAndOut: neither the caller's pool after Put nor a
// returned pool aliases the entry, and appending to one returned
// candidate's assignment cannot overwrite the next candidate's.
func TestCacheCopiesInAndOut(t *testing.T) {
	c := New(4)
	in := []core.Schedule{
		{Assign: []core.PUClass{core.ClassBig, core.ClassGPU}},
		{Assign: []core.PUClass{core.ClassGPU, core.ClassLittle}},
	}
	c.Put("k", in)
	in[0].Assign[0] = core.ClassLittle // caller mutates after Put
	in[1] = core.Schedule{}
	out, ok := c.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	if len(out.Pool) != 2 || out.Pool[0].Assign[0] != core.ClassBig || out.Pool[1].Assign[1] != core.ClassLittle {
		t.Fatalf("Put aliased the caller's pool: %v", out.Pool)
	}
	out.Pool[0].Assign[1] = core.ClassLittle // caller mutates a returned candidate
	out.Pool[0].Assign = append(out.Pool[0].Assign, core.ClassBig)
	out.Pool[1].Assign[0] = core.ClassBig
	if out.Pool[1].Assign[1] != core.ClassLittle {
		t.Fatal("appending to one returned candidate overwrote the next")
	}
	again, _ := c.Get("k")
	if again.Pool[0].Assign[1] != core.ClassGPU || len(again.Pool[0].Assign) != 2 || again.Pool[1].Assign[0] != core.ClassGPU {
		t.Fatalf("Get returned an aliasing copy: cached pool now %v", again.Pool)
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := New(2)
	c.Put("k", pool(core.ClassBig))
	c.SetBest("k", 0)
	c.Put("k", pool(core.ClassGPU))
	if st := c.Stats(); st.Size != 1 {
		t.Fatalf("Size = %d after double Put of one key", st.Size)
	}
	e, _ := c.Get("k")
	if len(e.Pool) != 1 || e.Pool[0].Assign[0] != core.ClassGPU || e.Winner.Assign != nil {
		t.Fatalf("second Put did not replace the entry: %+v", e)
	}
}

// TestCacheSetBest: a stored pool has no winner until SetBest adds one,
// in place: not a store, and no change of recency. From then on a hit
// returns the winner alone, as a copy. A winner for an entry evicted in
// between is dropped, not stored.
func TestCacheSetBest(t *testing.T) {
	c := New(2)
	c.Put("a", []core.Schedule{{Assign: []core.PUClass{core.ClassBig}}, {Assign: []core.PUClass{core.ClassGPU}}})
	c.Put("b", pool(core.ClassLittle))
	if e, _ := c.Get("a"); len(e.Pool) != 2 || e.Winner.Assign != nil {
		t.Fatalf("fresh entry %+v, want the pool and no winner", e)
	}
	c.SetBest("b", 0) // b stays least recently used
	c.SetBest("a", 1)
	won, _ := c.Get("a")
	if won.Pool != nil || !won.Winner.Equal(core.Schedule{Assign: []core.PUClass{core.ClassGPU}}) {
		t.Fatalf("entry %+v, want winner [gpu] and no pool", won)
	}
	won.Winner.Assign[0] = core.ClassLittle // caller mutates the returned winner
	if again, _ := c.Get("a"); again.Winner.Assign[0] != core.ClassGPU {
		t.Fatal("Get returned an aliasing winner")
	}
	c.Put("c", pool(core.ClassGPU)) // evicts b
	c.SetBest("b", 0)
	st := c.Stats()
	if st.Stores != 3 || st.Size != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 stores, size 2, 1 eviction: SetBest is no store", st)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("SetBest re-inserted an evicted entry")
	}
}

// TestCacheConcurrentInvariants hammers one cache from many goroutines
// (run under -race in CI) and checks the counter and size invariants
// afterwards: hits+misses equals the Get count, and size never exceeds
// capacity.
func TestCacheConcurrentInvariants(t *testing.T) {
	const (
		workers = 8
		iters   = 500
		cap     = 16
	)
	c := New(cap)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(3*cap))
				if rng.Intn(2) == 0 {
					c.Put(key, pool(core.ClassBig, core.ClassGPU))
				} else {
					if e, ok := c.Get(key); ok && (len(e.Pool) != 1 || len(e.Pool[0].Assign) != 2) {
						t.Errorf("corrupt pool for %s: %v", key, e.Pool)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > cap {
		t.Fatalf("size %d exceeds capacity %d", st.Size, cap)
	}
	gets := st.Hits + st.Misses
	puts := st.Stores
	if gets+puts != workers*iters {
		t.Fatalf("hits(%d)+misses(%d)+stores(%d) = %d, want %d operations",
			st.Hits, st.Misses, st.Stores, gets+puts, workers*iters)
	}
}

func TestNewDefaults(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if got := New(capacity).Stats().Capacity; got != DefaultCapacity {
			t.Errorf("New(%d) capacity = %d, want DefaultCapacity", capacity, got)
		}
	}
}

func TestKeyAdjustDigestSeparates(t *testing.T) {
	env := soc.Env{core.ClassGPU: {MemIntensity: 0.5}}
	knobs := Knobs{K: 8, Seed: 1}
	base := Key("fp", "dev", env, knobs)
	if strings.Contains(base, "|adj=") {
		t.Fatalf("empty Adjust leaked into key %q", base)
	}
	knobs.Adjust = "gpu/conv=2.03"
	adj := Key("fp", "dev", env, knobs)
	if adj == base {
		t.Fatal("Adjust digest not folded into key")
	}
	if !strings.HasSuffix(adj, "|adj=gpu/conv=2.03") {
		t.Fatalf("adjusted key %q lacks the digest suffix", adj)
	}
	// Distinct digests must never collide onto one entry.
	knobs.Adjust = "gpu/conv=1.97"
	if Key("fp", "dev", env, knobs) == adj {
		t.Fatal("distinct Adjust digests collide")
	}
}
