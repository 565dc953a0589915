package main

import (
	"math"
	goruntime "runtime"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestMedianIsExact(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		// Even counts average the two middle values; a power-of-two
		// histogram would report a bucket edge instead.
		{[]float64{0.0101, 0.0499, 0.0102, 0.0498}, (0.0102 + 0.0498) / 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	got, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, %v; want 4", got, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

func TestAdmitYield(t *testing.T) {
	if got := admitYield(0, 0); got != 0 {
		t.Errorf("admitYield with zero attempts = %v, want 0", got)
	}
	if got := admitYield(89, 3821); math.Abs(got-0.0233) > 1e-4 {
		t.Errorf("admitYield(89, 3821) = %v", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	lt := layerTimes(spans)
	if got, want := lt["root"].Self, 50e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("root self = %v, want %v (100 minus union [10,50] and [90,100])", got, want)
	}
	if got, want := lt["a"].Self, 45e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("a self = %v, want %v", got, want)
	}
	if lt["a"].Count != 2 || math.Abs(lt["a"].Total-50e-9) > 1e-15 {
		t.Errorf("a = %+v", lt["a"])
	}
}

func TestGuardReportsFirstDifference(t *testing.T) {
	g := newGuard(2)
	if !g.check(0, outcome{digest: []string{"x=1", "y=2"}}) || !g.check(1, outcome{digest: []string{"z"}}) {
		t.Fatal("first batches must set the reference")
	}
	if !g.check(0, outcome{digest: []string{"x=1", "y=2"}}) {
		t.Error("exact repeat rejected")
	}
	if g.check(0, outcome{digest: []string{"x=1", "y=3"}}) || g.check(1, outcome{digest: []string{"z", "extra"}}) {
		t.Error("changed digests accepted")
	}
	if len(g.mismatches) != 2 {
		t.Errorf("mismatches = %q", g.mismatches)
	}
}

// TestMetricsMatchSpec pins the computed metric names to BENCHMARK.json.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ph := &phase{ops: 1, elapsed: 1, opMs: []float64{1}, counts: map[string]float64{},
		first: []outcome{{simTaskMs: []float64{1}, simSessionMs: []float64{1}, admitted: 1, offered: 1}}}
	for _, c := range []struct {
		list   []metric
		values map[string]float64
	}{
		{sp.EndToEnd, ph.endToEnd(1)},
		{sp.PerLayer, ph.perLayer(map[string]layerTime{}, 1)},
	} {
		if len(c.list) != len(c.values) {
			t.Errorf("spec lists %d metrics, code computes %d", len(c.list), len(c.values))
		}
		for _, m := range c.list {
			if _, ok := c.values[m.Name]; !ok {
				t.Errorf("spec metric %s is not computed", m.Name)
			}
		}
	}
}

func TestUnstolenRemovesOneCPUsShareOfSteal(t *testing.T) {
	n := time.Duration(goruntime.NumCPU())
	sec, ms := time.Second, time.Millisecond
	for _, c := range []struct {
		name          string
		d, cpu, steal time.Duration
		want          time.Duration
	}{
		{"no steal", sec, sec, 0, sec},
		{"serial thread busy throughout", sec, 900 * ms, n * 100 * ms, 900 * ms},
		{"every CPU busy", sec, n * 900 * ms, n * 100 * ms, 900 * ms},
		{"mostly idle process is barely exposed", sec, 90 * ms, n * 100 * ms, 990 * ms},
		{"never more than one CPU's share", sec, n * sec, n * 100 * ms, 900 * ms},
		{"tick rounding past the interval", ms, 0, n * 10 * ms, ms},
	} {
		if got := unstolen(c.d, c.cpu, c.steal); got != c.want {
			t.Errorf("%s: unstolen(%v, %v, %v) = %v, want %v", c.name, c.d, c.cpu, c.steal, got, c.want)
		}
	}
}
