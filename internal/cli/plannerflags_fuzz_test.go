package cli

import (
	"testing"

	"bettertogether/internal/fleet"
	"bettertogether/internal/runtime"
	"bettertogether/internal/soc"
)

// FuzzPlannerFlags checks Validate against the layers the flags feed:
// every PlannerFlags it accepts builds a runtime and a one-node fleet,
// and Validate refuses exactly the -replan-delta values runtime.New
// refuses and the -sched-cache values fleet.New refuses. The committed corpus
// holds NaN, ±Inf and negative values for every float knob.
func FuzzPlannerFlags(f *testing.F) {
	dev, err := soc.DeviceByName("pixel7a")
	if err != nil {
		f.Fatal(err)
	}
	nodes := []fleet.NodeSpec{{Device: "pixel7a", Count: 1}}
	f.Fuzz(func(t *testing.T, capacity int, delta float64, online bool, threshold float64) {
		// Bound the capacity: the cache's size is not under test, and the
		// sign is kept so negative capacities still reach Validate.
		capacity %= 1 << 12
		p := PlannerFlags{CacheCapacity: capacity, ReplanDelta: delta,
			OnlineProfile: online, DriftThreshold: threshold}

		rt, rtErr := runtime.New(runtime.Config{Device: dev, ReplanDelta: delta})
		if rtErr == nil {
			rt.Close()
		}
		if flagErr := (&PlannerFlags{ReplanDelta: delta}).Validate(); (flagErr == nil) != (rtErr == nil) {
			t.Fatalf("-replan-delta %v: Validate error %v, runtime.New error %v", delta, flagErr, rtErr)
		}
		fl, flErr := fleet.New(fleet.Config{Nodes: nodes, CacheCapacity: capacity})
		if flErr == nil {
			fl.Close()
		}
		if flagErr := (&PlannerFlags{CacheCapacity: capacity}).Validate(); (flagErr == nil) != (flErr == nil) {
			t.Fatalf("-sched-cache %d: Validate error %v, fleet.New error %v", capacity, flagErr, flErr)
		}

		if p.Validate() != nil {
			return
		}
		rt, err := runtime.New(runtime.Config{Device: dev, Cache: p.Cache(), ReplanDelta: p.ReplanDelta, OnlineProf: p.OnlineProf()})
		if err != nil {
			t.Fatalf("Validate accepted %+v, runtime.New refused it: %v", p, err)
		}
		rt.Close()
		fl, err = fleet.New(fleet.Config{Nodes: nodes, CacheCapacity: p.CacheCapacity,
			ReplanDelta: p.ReplanDelta, OnlineProf: p.OnlineProf()})
		if err != nil {
			t.Fatalf("Validate accepted %+v, fleet.New refused it: %v", p, err)
		}
		fl.Close()
	})
}
