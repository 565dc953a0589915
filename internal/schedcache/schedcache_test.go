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

func TestQuantizeEnvTable(t *testing.T) {
	const b = 0.05
	cases := []struct {
		name string
		in   soc.Env
		want soc.Env
	}{
		{"nil", nil, soc.Env{}},
		{"empty", soc.Env{}, soc.Env{}},
		{"all-zero", soc.Env{core.ClassGPU: {MemIntensity: 0}}, soc.Env{}},
		{"negative-drops", soc.Env{core.ClassGPU: {MemIntensity: -0.3}}, soc.Env{}},
		{"nan-drops", soc.Env{core.ClassGPU: {MemIntensity: math.NaN()}}, soc.Env{}},
		{"below-half-bucket-drops", soc.Env{core.ClassGPU: {MemIntensity: 0.024}}, soc.Env{}},
		{"at-half-bucket-rounds-up", soc.Env{core.ClassGPU: {MemIntensity: 0.025}},
			soc.Env{core.ClassGPU: {MemIntensity: 0.05}}},
		{"rounds-nearest-down", soc.Env{core.ClassGPU: {MemIntensity: 0.07}},
			soc.Env{core.ClassGPU: {MemIntensity: 0.05}}},
		{"rounds-nearest-up", soc.Env{core.ClassGPU: {MemIntensity: 0.08}},
			soc.Env{core.ClassGPU: {MemIntensity: 0.10}}},
		{"exact-multiple-fixed", soc.Env{core.ClassGPU: {MemIntensity: 0.85}},
			soc.Env{core.ClassGPU: {MemIntensity: 0.85}}},
		{"above-one-clamps", soc.Env{core.ClassGPU: {MemIntensity: 1.7}},
			soc.Env{core.ClassGPU: {MemIntensity: 1.0}}},
		{"inf-clamps", soc.Env{core.ClassGPU: {MemIntensity: math.Inf(1)}},
			soc.Env{core.ClassGPU: {MemIntensity: 1.0}}},
		{"mixed-classes", soc.Env{
			core.ClassGPU:    {MemIntensity: 0.61},
			core.ClassBig:    {MemIntensity: 0.01},
			core.ClassLittle: {MemIntensity: math.NaN()},
		}, soc.Env{core.ClassGPU: {MemIntensity: 0.60}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := QuantizeEnv(tc.in, b)
			if len(got) != len(tc.want) {
				t.Fatalf("QuantizeEnv(%v) = %v, want %v", tc.in, got, tc.want)
			}
			for c, l := range tc.want {
				g := got[c].MemIntensity
				if math.IsNaN(g) {
					t.Fatalf("class %s quantized to NaN", c)
				}
				if math.Abs(g-l.MemIntensity) > 1e-12 {
					t.Errorf("class %s: got %v, want %v", c, g, l.MemIntensity)
				}
			}
		})
	}
}

// TestQuantizeEnvNaNFree is the PR-2 regression guard: whatever garbage
// the interference model once produced (NaN ratios), no NaN may survive
// quantization into a cache key or a planning environment.
func TestQuantizeEnvNaNFree(t *testing.T) {
	classes := []core.PUClass{core.ClassBig, core.ClassLittle, core.ClassGPU}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		env := soc.Env{}
		for _, c := range classes {
			switch rng.Intn(5) {
			case 0:
				env[c] = soc.Load{MemIntensity: math.NaN()}
			case 1:
				env[c] = soc.Load{MemIntensity: math.Inf(1)}
			case 2:
				env[c] = soc.Load{MemIntensity: -rng.Float64()}
			default:
				env[c] = soc.Load{MemIntensity: rng.Float64() * 2}
			}
		}
		q := QuantizeEnv(env, DefaultBucket)
		for c, l := range q {
			if math.IsNaN(l.MemIntensity) || math.IsInf(l.MemIntensity, 0) ||
				l.MemIntensity <= 0 || l.MemIntensity > 1 {
				t.Fatalf("iteration %d: class %s quantized to %v from %v",
					i, c, l.MemIntensity, env[c].MemIntensity)
			}
		}
	}
}

// TestQuantizeEnvDoesNotAliasInput pins that quantization never mutates
// or aliases the caller's map.
func TestQuantizeEnvDoesNotAliasInput(t *testing.T) {
	env := soc.Env{core.ClassGPU: {MemIntensity: 0.5}}
	q := QuantizeEnv(env, DefaultBucket)
	q[core.ClassBig] = soc.Load{MemIntensity: 1}
	if _, ok := env[core.ClassBig]; ok {
		t.Fatal("QuantizeEnv aliased the input map")
	}
	if env[core.ClassGPU].MemIntensity != 0.5 {
		t.Fatal("QuantizeEnv mutated the input")
	}
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
	ref := Key("fp", "dev", mk(orders[0], vals), DefaultBucket, Knobs{})
	for _, o := range orders[1:] {
		if k := Key("fp", "dev", mk(o, vals), DefaultBucket, Knobs{}); k != ref {
			t.Fatalf("insertion order changed the key:\n%s\n%s", ref, k)
		}
	}
	// Split additions per class (0.2+0.11 vs 0.31) must agree too: Add
	// sums before quantization sees the value.
	split := soc.Env{}
	split.Add(core.ClassBig, soc.Load{MemIntensity: 0.2})
	split.Add(core.ClassBig, soc.Load{MemIntensity: 0.11})
	split.Add(core.ClassLittle, soc.Load{MemIntensity: 0.12})
	split.Add(core.ClassGPU, soc.Load{MemIntensity: 0.77})
	if k := Key("fp", "dev", split, DefaultBucket, Knobs{}); k != ref {
		t.Fatalf("split addition changed the key:\n%s\n%s", ref, k)
	}
}

// TestKeyQuantizationCollapse pins both directions of the bucket
// contract: environments within the same bucket share a key;
// environments more than a bucket apart never do.
func TestKeyQuantizationCollapse(t *testing.T) {
	const b = 0.05
	key := func(v float64) string {
		return Key("fp", "dev", soc.Env{core.ClassGPU: {MemIntensity: v}}, b, Knobs{})
	}
	if key(0.50) != key(0.51) || key(0.50) != key(0.49) {
		t.Error("within-bucket perturbation changed the key")
	}
	if key(0.50) == key(0.56) {
		t.Error("perturbation beyond a bucket kept the key")
	}
	// Raw and pre-quantized environments key identically (Key quantizes
	// at the index level, QuantizeEnv at the value level).
	env := soc.Env{core.ClassGPU: {MemIntensity: 0.63}}
	if Key("fp", "dev", env, b, Knobs{}) != Key("fp", "dev", QuantizeEnv(env, b), b, Knobs{}) {
		t.Error("raw and pre-quantized env keys differ")
	}
}

// TestKeyQuickCheckEnvEquality quick-checks the canonicalization
// property over random environments: equal bucket indices per class if
// and only if equal keys.
func TestKeyQuickCheckEnvEquality(t *testing.T) {
	classes := []core.PUClass{core.ClassBig, core.ClassLittle, core.ClassGPU}
	f := func(raw [3]float64, perturb [3]int8) bool {
		a, b := soc.Env{}, soc.Env{}
		same := true
		for i, c := range classes {
			v := math.Abs(raw[i])
			v -= math.Floor(v) // into [0,1)
			a[c] = soc.Load{MemIntensity: v}
			// Perturb by whole buckets; same key expected iff all zero.
			shift := float64(int(perturb[i]%3)-1) * DefaultBucket
			b[c] = soc.Load{MemIntensity: v + shift}
			if bucketIndex(v, DefaultBucket) != bucketIndex(v+shift, DefaultBucket) {
				same = false
			}
		}
		ka := Key("fp", "dev", a, DefaultBucket, Knobs{})
		kb := Key("fp", "dev", b, DefaultBucket, Knobs{})
		return (ka == kb) == same
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
	base := Key("fp", "dev", env, DefaultBucket, Knobs{K: 8, Seed: 1})
	for name, k := range map[string]Knobs{
		"k":    {K: 9, Seed: 1},
		"seed": {K: 8, Seed: 2},
	} {
		if Key("fp", "dev", env, DefaultBucket, k) == base {
			t.Errorf("knob %s not folded into key", name)
		}
	}
	if Key("fp", "other", env, DefaultBucket, Knobs{K: 8, Seed: 1}) == base {
		t.Error("device not folded into key")
	}
	if !strings.HasPrefix(base, "fp|dev|") {
		t.Errorf("key %q does not lead with fingerprint|device", base)
	}
}

func sched(classes ...core.PUClass) core.Schedule {
	return core.Schedule{Assign: classes}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2, DefaultBucket)
	c.Put("a", sched(core.ClassBig))
	c.Put("b", sched(core.ClassGPU))
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", sched(core.ClassLittle)) // evicts b
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

func TestCacheCopiesInAndOut(t *testing.T) {
	c := New(4, DefaultBucket)
	in := sched(core.ClassBig, core.ClassGPU)
	c.Put("k", in)
	in.Assign[0] = core.ClassLittle // caller mutates after Put
	out, ok := c.Get("k")
	if !ok {
		t.Fatal("miss")
	}
	if out.Assign[0] != core.ClassBig {
		t.Fatal("Put aliased the caller's schedule")
	}
	out.Assign[1] = core.ClassLittle // caller mutates the returned copy
	again, _ := c.Get("k")
	if again.Assign[1] != core.ClassGPU {
		t.Fatal("Get returned an aliasing copy")
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := New(2, DefaultBucket)
	c.Put("k", sched(core.ClassBig))
	c.Put("k", sched(core.ClassGPU))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after double Put of one key", c.Len())
	}
	s, _ := c.Get("k")
	if s.Assign[0] != core.ClassGPU {
		t.Fatal("second Put did not replace the entry")
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
	c := New(cap, DefaultBucket)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(3*cap))
				if rng.Intn(2) == 0 {
					c.Put(key, sched(core.ClassBig, core.ClassGPU))
				} else {
					if s, ok := c.Get(key); ok && len(s.Assign) != 2 {
						t.Errorf("corrupt schedule for %s: %v", key, s)
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
	if st.Size != c.Len() {
		t.Fatalf("Stats.Size %d != Len %d", st.Size, c.Len())
	}
	gets := st.Hits + st.Misses
	puts := st.Stores
	if gets+puts != workers*iters {
		t.Fatalf("hits(%d)+misses(%d)+stores(%d) = %d, want %d operations",
			st.Hits, st.Misses, st.Stores, gets+puts, workers*iters)
	}
}

// TestTinyBucketSelectsDefault pins that a bucket too fine to index
// falls back to DefaultBucket: at 1e-300 the bucket index of 0.2 and
// of 0.7 once overflowed to the same negative int, so two environments
// shared one key and quantized to a negative intensity.
func TestTinyBucketSelectsDefault(t *testing.T) {
	low := soc.Env{core.ClassGPU: {MemIntensity: 0.2}}
	high := soc.Env{core.ClassGPU: {MemIntensity: 0.7}}
	for _, b := range []float64{1e-300, 1e-19, 9.9e-10} {
		if Key("fp", "dev", low, b, Knobs{}) == Key("fp", "dev", high, b, Knobs{}) {
			t.Errorf("bucket %g: intensities 0.2 and 0.7 share a key", b)
		}
		if got, want := QuantizeEnv(high, b), QuantizeEnv(high, DefaultBucket); got[core.ClassGPU] != want[core.ClassGPU] {
			t.Errorf("bucket %g: quantized %v, want the default bucket's %v", b, got, want)
		}
		if got := New(8, b).Bucket(); got != DefaultBucket {
			t.Errorf("New(8, %g).Bucket() = %v, want DefaultBucket", b, got)
		}
	}
	if got := New(8, 1e-9).Bucket(); got != 1e-9 {
		t.Errorf("New(8, 1e-9).Bucket() = %v, want the finest usable width kept", got)
	}
}

func TestNewDefaults(t *testing.T) {
	c := New(0, 0)
	if c.Stats().Capacity != DefaultCapacity {
		t.Errorf("capacity = %d, want DefaultCapacity", c.Stats().Capacity)
	}
	if c.Bucket() != DefaultBucket {
		t.Errorf("bucket = %v, want DefaultBucket", c.Bucket())
	}
	if got := New(3, math.NaN()).Bucket(); got != DefaultBucket {
		t.Errorf("NaN bucket resolved to %v", got)
	}
}

func TestKeyAdjustDigestSeparates(t *testing.T) {
	env := soc.Env{core.ClassGPU: {MemIntensity: 0.5}}
	knobs := Knobs{K: 8, Seed: 1}
	base := Key("fp", "dev", env, DefaultBucket, knobs)
	if strings.Contains(base, "|adj=") {
		t.Fatalf("empty Adjust leaked into key %q", base)
	}
	knobs.Adjust = "gpu/conv=2.03"
	adj := Key("fp", "dev", env, DefaultBucket, knobs)
	if adj == base {
		t.Fatal("Adjust digest not folded into key")
	}
	if !strings.HasSuffix(adj, "|adj=gpu/conv=2.03") {
		t.Fatalf("adjusted key %q lacks the digest suffix", adj)
	}
	// Distinct digests must never collide onto one entry.
	knobs.Adjust = "gpu/conv=1.97"
	if Key("fp", "dev", env, DefaultBucket, knobs) == adj {
		t.Fatal("distinct Adjust digests collide")
	}
}
