package runtime

import (
	"math"
	"strings"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/schedcache"
)

// identityAdjust is a valid profiler.Adjust for option-validation tests.
func identityAdjust(_ string, _ core.PUClass, sec float64) float64 { return sec }

// TestOptionValidation exercises every option's fail-fast path: a bad
// value must fail New with an error naming the option, not silently
// fall back to a default.
func TestOptionValidation(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	cases := []struct {
		name string
		opt  Option
		want string
	}{
		{"nil engine", WithEngine(nil), "WithEngine"},
		{"zero bw headroom", WithHeadroom(0, 2), "WithHeadroom"},
		{"NaN core headroom", WithHeadroom(2, math.NaN()), "WithHeadroom"},
		{"zero reps", WithPlanningBudget(0, 12, 8), "WithPlanningBudget"},
		{"negative k", WithPlanningBudget(8, 12, -1), "WithPlanningBudget"},
		{"nil events", WithEvents(nil), "WithEvents"},
		{"nil cache", WithSchedCache(nil), "WithSchedCache"},
		{"negative delta", WithReplanDelta(-0.1), "WithReplanDelta"},
		{"Inf delta", WithReplanDelta(math.Inf(1)), "WithReplanDelta"},
		{"nil adjust", WithModelAdjust("x2", nil), "WithModelAdjust"},
		{"empty digest", WithModelAdjust("", identityAdjust), "WithModelAdjust"},
		{"nil option", nil, "option 0 is nil"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(dev, tc.opt)
			if err == nil {
				t.Fatal("New accepted the bad option")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %s", err, tc.want)
			}
		})
	}
}

// TestNewAppliesOptions pins that each option actually lands in the
// built runtime, observable through the public accessors.
func TestNewAppliesOptions(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	cache := schedcache.New(16, 0)
	stream := obs.NewStream(64)
	rt, err := New(dev,
		WithSchedCache(cache),
		WithReplanDelta(0.25),
		WithEvents(stream),
		WithSeed(7),
		WithHeadroom(4, 4),
		WithPlanningBudget(4, 6, 4),
		WithOnlineProfiling(onlineprof.Config{DriftThreshold: 0.5}),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	if rt.Cache() != cache {
		t.Error("WithSchedCache did not install the cache")
	}
	est := rt.OnlineProfiler()
	if est == nil {
		t.Fatal("WithOnlineProfiling did not build an estimator")
	}
	if got := est.Config().DriftThreshold; got != 0.5 {
		t.Errorf("estimator threshold = %v, want the configured 0.5", got)
	}
	if _, ok := rt.OnlineProfStats(); !ok {
		t.Error("OnlineProfStats reports disabled with profiling on")
	}
	if rt.Device() != dev {
		t.Error("Device() is not the constructor argument")
	}

	plain, err := New(dev)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer plain.Close()
	if plain.OnlineProfiler() != nil {
		t.Error("unconfigured New must not enable online profiling")
	}
	if _, ok := plain.OnlineProfStats(); ok {
		t.Error("OnlineProfStats reports enabled on an unconfigured runtime")
	}
}
