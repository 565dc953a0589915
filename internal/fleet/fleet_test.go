package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"bettertogether/internal/obs"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

func mustFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestParseNodeSpecs(t *testing.T) {
	specs, err := ParseNodeSpecs("pixel7a=2, jetson ,oneplus11=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeSpec{{Device: "pixel7a", Count: 2}, {Device: "jetson", Count: 1}, {Device: "oneplus11", Count: 1}}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("specs = %+v, want %+v", specs, want)
	}
	for _, bad := range []string{"", "  ,  ", "jetson=0", "jetson=-1", "jetson=x"} {
		if _, err := ParseNodeSpecs(bad); err == nil {
			t.Errorf("ParseNodeSpecs(%q) accepted", bad)
		}
	}
}

func TestParseAffinity(t *testing.T) {
	aff, err := ParseAffinity("vision=jetson, octree=pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"vision": "jetson", "octree": "pixel7a"}
	if !reflect.DeepEqual(aff, want) {
		t.Fatalf("affinity = %v, want %v", aff, want)
	}
	if aff, err := ParseAffinity("  "); err != nil || aff != nil {
		t.Fatalf("blank affinity = %v, %v; want nil, nil", aff, err)
	}
	for _, bad := range []string{"vision", "=jetson", "vision=", "vision=jetson,vision=pixel7a", "vision=jetson, vision =jetson"} {
		if _, err := ParseAffinity(bad); err == nil {
			t.Errorf("ParseAffinity(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty registry")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 0}}}); err == nil {
		t.Fatal("New accepted a zero-count node spec")
	}
	if _, err := New(Config{Nodes: []NodeSpec{{Device: "no-such-soc", Count: 1}}}); err == nil {
		t.Fatal("New accepted an unknown device class")
	}
}

// TestNewRejectsRepeatedDevice pins that a device named in two specs is
// refused, by New and by ParseNodeSpecs, with the <device>=<count> form
// to use instead: both specs would number their nodes from jetson/0.
func TestNewRejectsRepeatedDevice(t *testing.T) {
	specs := []NodeSpec{{Device: "jetson", Count: 1}, {Device: "pixel7a", Count: 1}, {Device: "jetson", Count: 1}}
	if _, err := New(Config{Nodes: specs}); err == nil || !strings.Contains(err.Error(), "jetson=<count>") {
		t.Errorf("New with jetson twice: err %v, want a refusal naming jetson=<count>", err)
	}
	if _, err := ParseNodeSpecs("jetson=1,jetson=1"); err == nil || !strings.Contains(err.Error(), "jetson=<count>") {
		t.Errorf("ParseNodeSpecs(jetson=1,jetson=1): err %v, want a refusal naming jetson=<count>", err)
	}
}

// TestNewRefusesBadKnobs pins that a negative or non-finite knob fails
// New with an error naming it, instead of quietly building nodes on the
// default headroom, re-planning on every pass or running uncached.
func TestNewRefusesBadKnobs(t *testing.T) {
	nodes := []NodeSpec{{Device: "pixel7a", Count: 2}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"NaN bw headroom", Config{BWHeadroom: math.NaN()}, "BWHeadroom"},
		{"negative bw headroom", Config{BWHeadroom: -1, CoreHeadroom: 3}, "BWHeadroom"},
		{"Inf core headroom", Config{CoreHeadroom: math.Inf(1)}, "CoreHeadroom"},
		{"negative delta", Config{ReplanDelta: -5}, "ReplanDelta"},
		{"NaN delta", Config{ReplanDelta: math.NaN()}, "ReplanDelta"},
		{"negative cache", Config{CacheCapacity: -3}, "CacheCapacity"},
		{"negative bucket", Config{CacheCapacity: 8, CacheBucket: -0.5}, "CacheBucket"},
		{"NaN bucket", Config{CacheBucket: math.NaN()}, "CacheBucket"},
		{"Inf bucket", Config{CacheCapacity: 8, CacheBucket: math.Inf(1)}, "CacheBucket"},
		{"tiny bucket", Config{CacheCapacity: 64, CacheBucket: 1e-300}, "CacheBucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Nodes = nodes
			f, err := New(cfg)
			if err == nil {
				f.Close()
				t.Fatalf("New accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// FuzzParseNodeSpecs checks every registry spec ParseNodeSpecs accepts:
// at least one spec, each device name non-empty and trimmed and named
// once, each count positive.
func FuzzParseNodeSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseNodeSpecs(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("%q: accepted with no specs", s)
		}
		seen := map[string]bool{}
		for _, spec := range specs {
			if spec.Device == "" || spec.Device != strings.TrimSpace(spec.Device) {
				t.Fatalf("%q: device name %q is empty or untrimmed", s, spec.Device)
			}
			if spec.Count <= 0 {
				t.Fatalf("%q: device %q has count %d", s, spec.Device, spec.Count)
			}
			if seen[spec.Device] {
				t.Fatalf("%q: device %q named twice", s, spec.Device)
			}
			seen[spec.Device] = true
		}
	})
}

// FuzzParseAffinity checks every affinity ParseAffinity accepts: each
// app and device name non-empty and trimmed, and no app named twice.
func FuzzParseAffinity(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		aff, err := ParseAffinity(s)
		if err != nil {
			return
		}
		for app, dev := range aff {
			if app == "" || app != strings.TrimSpace(app) || dev == "" || dev != strings.TrimSpace(dev) {
				t.Fatalf("%q: pair %q=%q has an empty or untrimmed name", s, app, dev)
			}
		}
		// Every non-blank pair must survive as its own entry: an app
		// named twice would collapse two pairs into one.
		pairs := 0
		for _, part := range strings.Split(s, ",") {
			if strings.TrimSpace(part) != "" {
				pairs++
			}
		}
		if len(aff) != pairs {
			t.Fatalf("%q: %d pairs parsed into %d entries %v", s, pairs, len(aff), aff)
		}
	})
}

func TestRegistryShape(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{
		{Device: "pixel7a", Count: 2},
		{Device: "jetson", Count: 1},
	}})
	nodes := f.Nodes()
	wantIDs := []string{"pixel7a/0", "pixel7a/1", "jetson/0"}
	if len(nodes) != len(wantIDs) {
		t.Fatalf("registry size = %d, want %d", len(nodes), len(wantIDs))
	}
	for i, n := range nodes {
		if n.ID != wantIDs[i] {
			t.Fatalf("node %d ID = %q, want %q", i, n.ID, wantIDs[i])
		}
		if n.RT == nil || n.Device == nil {
			t.Fatalf("node %s missing runtime or device", n.ID)
		}
	}
	// Same-class nodes must not share a device instance: each runtime
	// owns its own interference accounting.
	if nodes[0].Device == nodes[1].Device {
		t.Fatal("pixel7a nodes share one *soc.Device")
	}
}

// TestPlacementPrefersHeadroom pins the scoring order: with one node
// already loaded, the next arrival lands on the idle one.
func TestPlacementPrefersHeadroom(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "jetson", Count: 2}}})
	app, err := btapps.ByName("octree")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("first Place: %v", err)
	}
	if p1.Node.ID != "jetson/0" || p1.Choice != 0 {
		t.Fatalf("first placement = %s choice %d, want jetson/0 choice 0", p1.Node.ID, p1.Choice)
	}
	p2, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("second Place: %v", err)
	}
	if p2.Node.ID != "jetson/1" || p2.Choice != 0 {
		t.Fatalf("second placement = %s choice %d, want jetson/1 choice 0 (idle node outscores loaded)",
			p2.Node.ID, p2.Choice)
	}
}

// TestPlacementSpillover pins the spillover path: when the first-ranked
// node refuses with an admission error, the arrival lands on the next
// candidate and is counted as a spill. Both nodes are idle (tied score,
// node-ID order breaks the tie toward jetson/0), but vision's
// projected DRAM draw (~47.7 GB/s) exceeds the jetson's unscaled 45 GB/s
// while fitting comfortably on the pixel — so the sweep must cross
// nodes.
func TestPlacementSpillover(t *testing.T) {
	stream := obs.NewStream(64)
	f := mustFleet(t, Config{
		Nodes: []NodeSpec{
			{Device: "jetson", Count: 1},
			{Device: "pixel7a", Count: 1},
		},
		BWHeadroom:   1.0,
		CoreHeadroom: 100,
		Events:       stream,
	})
	app, err := btapps.ByName("vision")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if p.Node.ID != "pixel7a/0" || p.Choice != 1 {
		t.Fatalf("placement = %s choice %d, want pixel7a/0 choice 1 (spill past the refusing jetson)",
			p.Node.ID, p.Choice)
	}
	s := f.Stats()
	if s.Placed != 1 || s.Spills != 1 || s.Rejected != 0 {
		t.Fatalf("stats = placed %d spills %d rejected %d, want 1/1/0", s.Placed, s.Spills, s.Rejected)
	}
	if s.PerNode[0].Rejected != 1 {
		t.Fatalf("jetson rejections = %d, want 1 (the spillover probe)", s.PerNode[0].Rejected)
	}
	var placeDetails []string
	for _, e := range stream.Recent(0) {
		if e.Kind == obs.KindPlace {
			placeDetails = append(placeDetails, e.Detail)
		}
	}
	want := []string{"node=pixel7a/0 choice=1"}
	if !reflect.DeepEqual(placeDetails, want) {
		t.Fatalf("place events = %v, want %v", placeDetails, want)
	}
}

// TestPlacementRejectsWhenFull pins the fleet-wide rejection: every node
// refuses, the caller gets a typed *PlacementError naming each refusal.
func TestPlacementRejectsWhenFull(t *testing.T) {
	f := mustFleet(t, Config{
		Nodes:        []NodeSpec{{Device: "jetson", Count: 2}},
		BWHeadroom:   1.2,
		CoreHeadroom: 100,
	})
	app, err := btapps.ByName("vision")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true}); err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	_, err = f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	var perr *PlacementError
	if !errors.As(err, &perr) {
		t.Fatalf("third Place error = %v, want *PlacementError", err)
	}
	if len(perr.Refusals) != 2 {
		t.Fatalf("refusals = %d, want 2", len(perr.Refusals))
	}
	for _, r := range perr.Refusals {
		if r.Err == nil {
			t.Fatalf("refusal on %s has no admission error", r.Node)
		}
	}
	if s := f.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

// TestAffinityRanksPreferredClassFirst pins the affinity policy: a
// preferred device class outranks better-scoring nodes of other classes,
// and spillover still crosses class boundaries when the preferred class
// is full.
func TestAffinityRanksPreferredClassFirst(t *testing.T) {
	f := mustFleet(t, Config{
		Nodes: []NodeSpec{
			{Device: "pixel7a", Count: 1}, // registry-first: wins without affinity
			{Device: "jetson", Count: 1},
		},
		BWHeadroom:   1.2,
		CoreHeadroom: 100,
		Affinity:     map[string]string{"vision": "jetson"},
	})
	app, err := btapps.ByName("vision")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if p.Node.Device.Name != "jetson" || p.Choice != 0 {
		t.Fatalf("affine placement = %s choice %d, want jetson first", p.Node.ID, p.Choice)
	}
	// Preferred class now full: the next vision spills to the pixel.
	p, err = f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("spill Place: %v", err)
	}
	if p.Node.Device.Name != "pixel7a" || p.Choice == 0 {
		t.Fatalf("cross-class spill = %s choice %d, want pixel7a past the full jetson", p.Node.ID, p.Choice)
	}
}

func TestGenerateDeterministicAndSorted(t *testing.T) {
	cfg := GenConfig{
		Pattern:  PatternPoisson,
		Arrivals: 20,
		Apps:     []string{"octree", "alexnet-sparse"},
		Seed:     7,
	}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different traces")
	}
	prev := 0.0
	for i, arr := range a.Arrivals {
		if arr.At < prev {
			t.Fatalf("arrival %d out of order: %v < %v", i, arr.At, prev)
		}
		prev = arr.At
		if want := cfg.Apps[i%len(cfg.Apps)]; arr.App != want {
			t.Fatalf("arrival %d app = %q, want mix-exact %q", i, arr.App, want)
		}
		if arr.Dwell < 0 {
			t.Fatalf("arrival %d negative dwell %v", i, arr.Dwell)
		}
	}
}

func TestGenerateBurstyClusters(t *testing.T) {
	tr, err := Generate(GenConfig{
		Pattern:    PatternBursty,
		Arrivals:   8,
		Burst:      4,
		BurstEvery: 10,
		Apps:       []string{"octree"},
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two clusters of four: the first within [0, 0.1), the second within
	// [10, 10.1).
	for i, a := range tr.Arrivals {
		epoch := float64(i/4) * 10
		if a.At < epoch || a.At >= epoch+0.1 {
			t.Fatalf("arrival %d at %v outside cluster window [%v, %v)", i, a.At, epoch, epoch+0.1)
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{Apps: []string{"octree"}}); err == nil {
		t.Fatal("Generate accepted zero arrivals")
	}
	if _, err := Generate(GenConfig{Arrivals: 1}); err == nil {
		t.Fatal("Generate accepted an empty app mix")
	}
	if _, err := Generate(GenConfig{Arrivals: 1, Apps: []string{"octree"}, Pattern: "square-wave"}); err == nil {
		t.Fatal("Generate accepted an unknown pattern")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr, err := Generate(GenConfig{Arrivals: 5, Apps: []string{"octree", "vision"}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatal("trace changed across encode/decode")
	}
}

func TestDecodeTraceValidates(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"arrivals":[{"at":0,"app":"octree","dwell":1,"bogus":1}]}`,
		"missing app":     `{"arrivals":[{"at":0,"dwell":1}]}`,
		"negative dwell":  `{"arrivals":[{"at":0,"app":"octree","dwell":-1}]}`,
		"order violation": `{"arrivals":[{"at":5,"app":"octree","dwell":1},{"at":1,"app":"octree","dwell":1}]}`,
	}
	for name, raw := range cases {
		if _, err := DecodeTrace(strings.NewReader(raw)); err == nil {
			t.Errorf("%s: DecodeTrace accepted %s", name, raw)
		}
	}
}

// replayOnce builds a fresh 3-node fleet, replays the canonical seeded
// trace, and returns the result serialized to JSON — the byte-level
// artifact the determinism pin compares.
func replayOnce(t *testing.T) ([]byte, ReplayResult, *Fleet) {
	t.Helper()
	f := mustFleet(t, Config{
		Nodes: []NodeSpec{
			{Device: "pixel7a", Count: 1},
			{Device: "oneplus11", Count: 1},
			{Device: "jetson", Count: 1},
		},
		Seed:          11,
		CacheCapacity: 64,
	})
	tr, err := Generate(GenConfig{
		Pattern:    PatternBursty,
		Arrivals:   6,
		Burst:      3,
		BurstEvery: 40,
		Apps:       []string{"octree", "alexnet-sparse"},
		MeanDwell:  5,
		Tasks:      4,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.ReplayWith(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw, res, f
}

// TestReplayDeterministic is the acceptance pin: two replays of the same
// seeded trace over the same 3-node fleet produce byte-identical
// results.
func TestReplayDeterministic(t *testing.T) {
	rawA, resA, _ := replayOnce(t)
	rawB, _, _ := replayOnce(t)
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("replays diverged:\n%s\n%s", rawA, rawB)
	}
	if resA.Placed != resA.Arrivals || resA.Rejected != 0 {
		t.Fatalf("replay dropped arrivals: %+v", resA)
	}
	for i, rec := range resA.Records {
		if rec.Elapsed <= 0 {
			t.Fatalf("record %d has no completion latency: %+v", i, rec)
		}
	}
	if resA.P50 <= 0 || resA.P99 < resA.P50 {
		t.Fatalf("degenerate latency quantiles: p50=%v p99=%v", resA.P50, resA.P99)
	}
}

// TestReplayStats pins that Replay feeds the exported FleetStats: the
// counters visible on /metrics match the replay result, the latency
// histogram saw every completion, and per-node placements sum to the
// fleet total.
func TestReplayStats(t *testing.T) {
	_, res, f := replayOnce(t)
	s := f.Stats()
	if s.Arrivals != res.Arrivals || s.Placed != res.Placed ||
		s.Spills != res.Spilled || s.Rejected != res.Rejected {
		t.Fatalf("stats %+v disagree with replay result %+v", s, res)
	}
	if got := s.Latency.Count(); got != uint64(res.Placed) {
		t.Fatalf("latency observations = %d, want %d", got, res.Placed)
	}
	perNode := 0
	for _, n := range s.PerNode {
		perNode += n.Placed
	}
	if perNode != s.Placed {
		t.Fatalf("per-node placements sum to %d, fleet placed %d", perNode, s.Placed)
	}
	// The replay ran every session to completion: no node holds
	// residents, demand drains back to zero.
	for _, n := range s.PerNode {
		if n.Headroom.ResidentCount != 0 {
			t.Fatalf("node %s still holds %d residents after replay", n.ID, n.Headroom.ResidentCount)
		}
	}
}
