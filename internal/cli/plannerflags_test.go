package cli

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"

	"bettertogether/internal/onlineprof"
	"bettertogether/internal/runtime"
	"bettertogether/internal/soc"
)

// parsePlanner runs args through a fresh FlagSet carrying the shared
// planner flags, as each command does at startup.
func parsePlanner(t *testing.T, args ...string) *PlannerFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p := AddPlannerFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%v): %v", args, err)
	}
	return p
}

// TestPlannerFlagsDefaultsValidate pins that the zero flag state is
// valid and selects nothing: no cache, no delta filter, no feedback.
func TestPlannerFlagsDefaultsValidate(t *testing.T) {
	p := parsePlanner(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate on defaults: %v", err)
	}
	if c := p.Cache(); c != nil {
		t.Errorf("Cache() = %v on defaults, want nil", c)
	}
	if c := p.OnlineProf(); c != nil {
		t.Errorf("OnlineProf() = %v on defaults, want nil", c)
	}
	if p.ReplanDelta != 0 {
		t.Errorf("ReplanDelta = %v on defaults, want 0", p.ReplanDelta)
	}
}

// TestPlannerFlagsValidateRejects exercises the single shared
// validation path across every knob's failure mode.
func TestPlannerFlagsValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*PlannerFlags)
		want string
	}{
		{"negative cache", func(p *PlannerFlags) { p.CacheCapacity = -1 }, "-sched-cache"},
		{"negative bucket", func(p *PlannerFlags) { p.CacheBucket = -0.5 }, "-cache-bucket"},
		{"NaN bucket", func(p *PlannerFlags) { p.CacheBucket = math.NaN() }, "-cache-bucket"},
		{"tiny bucket", func(p *PlannerFlags) { p.CacheCapacity, p.CacheBucket = 64, 1e-300 }, "-cache-bucket"},
		{"negative delta", func(p *PlannerFlags) { p.ReplanDelta = -1 }, "-replan-delta"},
		{"Inf delta", func(p *PlannerFlags) { p.ReplanDelta = math.Inf(1) }, "-replan-delta"},
		{"negative threshold", func(p *PlannerFlags) {
			p.OnlineProfile, p.DriftThreshold = true, -0.1
		}, "-drift-threshold"},
		{"threshold without profiling", func(p *PlannerFlags) { p.DriftThreshold = 0.5 }, "-online-profile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &PlannerFlags{}
			tc.mut(p)
			err := p.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", p)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %s", err, tc.want)
			}
		})
	}
}

// TestPlannerFlagsBuildsArtifacts pins the flag-to-config mapping: each
// flag parses into its own field, a set cache capacity yields a cache of that shape, -online-profile
// yields an onlineprof config carrying the threshold, and a runtime
// built from them carries exactly the set knobs.
func TestPlannerFlagsBuildsArtifacts(t *testing.T) {
	p := parsePlanner(t,
		"-sched-cache", "32", "-cache-bucket", "0.1",
		"-replan-delta", "0.05",
		"-online-profile", "-drift-threshold", "0.4")
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := PlannerFlags{CacheCapacity: 32, CacheBucket: 0.1, ReplanDelta: 0.05, OnlineProfile: true, DriftThreshold: 0.4}
	if *p != want {
		t.Errorf("parsed %+v, want %+v", *p, want)
	}
	c := p.Cache()
	if c == nil {
		t.Fatal("Cache() = nil with -sched-cache 32")
	}
	if st := c.Stats(); st.Capacity != 32 {
		t.Errorf("cache capacity = %d, want 32", st.Capacity)
	}
	op := p.OnlineProf()
	if op == nil {
		t.Fatal("OnlineProf() = nil with -online-profile")
	}
	if op.DriftThreshold != 0.4 {
		t.Errorf("DriftThreshold = %v, want 0.4", op.DriftThreshold)
	}
	// Zero threshold defers to the estimator default.
	p2 := parsePlanner(t, "-online-profile")
	if got := onlineprof.NewEstimator(*p2.OnlineProf()); got.Config().DriftThreshold != onlineprof.DefaultDriftThreshold {
		t.Errorf("defaulted threshold = %v, want %v",
			got.Config().DriftThreshold, onlineprof.DefaultDriftThreshold)
	}
	dev, err := soc.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := runtime.New(runtime.Config{Device: dev, Cache: c, ReplanDelta: p.ReplanDelta, OnlineProf: op})
	if err != nil {
		t.Fatalf("runtime.New: %v", err)
	}
	defer rt.Close()
	if rt.Cache() != c {
		t.Error("runtime did not install the flags' cache")
	}
	if est := rt.OnlineProfiler(); est == nil || est.Config().DriftThreshold != 0.4 {
		t.Errorf("runtime estimator %v, want one with threshold 0.4", est)
	}
}

// TestAddCacheFlagsOnlyCache pins that the cache-only set declares the
// two schedule-cache flags and none of the re-planner's, and that
// AddPlannerFlags builds on it.
func TestAddCacheFlagsOnlyCache(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	p := addCacheFlags(fs)
	for _, name := range []string{"sched-cache", "cache-bucket"} {
		if fs.Lookup(name) == nil {
			t.Errorf("-%s not declared", name)
		}
	}
	for _, name := range []string{"replan-delta", "online-profile", "drift-threshold"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s declared on the cache-only set", name)
		}
	}
	if err := fs.Parse([]string{"-sched-cache", "8", "-cache-bucket", "0.5"}); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.CacheCapacity != 8 || p.CacheBucket != 0.5 {
		t.Errorf("parsed %+v, want capacity 8 bucket 0.5", *p)
	}
}
