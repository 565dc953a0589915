package fleet

import (
	"fmt"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

// spreadNodes splits n nodes across the three phone/edge device classes,
// so placement ranks a heterogeneous registry rather than n copies of
// one headroom profile.
func spreadNodes(n int) []NodeSpec {
	var specs []NodeSpec
	for i, d := range []string{"pixel7a", "oneplus11", "jetson"} {
		if c := (n + 2 - i) / 3; c > 0 {
			specs = append(specs, NodeSpec{Device: d, Count: c})
		}
	}
	return specs
}

// heldOctree returns octree and a pinned schedule for it, so each Place
// costs a sweep and an admission but no planning.
func heldOctree(tb testing.TB) (*core.Application, *core.Schedule) {
	tb.Helper()
	app, err := btapps.ByName("octree")
	if err != nil {
		tb.Fatal(err)
	}
	return app, pinnedSchedule(tb, app)
}

// placeHeld places session i of app, held, with the pinned schedule.
func placeHeld(tb testing.TB, f *Fleet, app *core.Application, sched *core.Schedule, i int) {
	tb.Helper()
	opts := runtime.AdmitOptions{Name: fmt.Sprintf("s%d", i), Tasks: 2, Hold: true, Schedule: sched}
	if _, err := f.Place(app, opts); err != nil {
		tb.Fatalf("placement %d: %v", i, err)
	}
}

// TestIndexHeadroomReads pins what the banded index saves, in exact
// counts of node headroom reads. The index reads every node once when
// the fleet is built and then only the node each placement landed on;
// exhaustive ranking reads every node on every placement.
func TestIndexHeadroomReads(t *testing.T) {
	app, sched := heldOctree(t)
	for _, nodes := range []int{10, 100} {
		placements := 2 * nodes
		for _, exhaustive := range []bool{false, true} {
			t.Run(fmt.Sprintf("nodes=%d/exhaustive=%v", nodes, exhaustive), func(t *testing.T) {
				f := mustFleet(t, Config{Nodes: spreadNodes(nodes), Seed: 1, exhaustive: exhaustive})
				for i := 0; i < placements; i++ {
					placeHeld(t, f, app, sched, i)
				}
				want := nodes + placements
				if exhaustive {
					want = nodes * placements
				}
				if f.reads != want {
					t.Fatalf("%d headroom reads over %d placements on %d nodes, want %d", f.reads, placements, nodes, want)
				}
			})
		}
	}
}

// BenchmarkPlace times one held placement on fleets of 10, 100 and 1000
// nodes, banded and exhaustive. Each fleet takes two placements per
// node before a fresh one is built outside the timer, so every size
// sees the same per-node load.
func BenchmarkPlace(b *testing.B) {
	app, sched := heldOctree(b)
	for _, nodes := range []int{10, 100, 1000} {
		for _, mode := range []struct {
			name       string
			exhaustive bool
		}{{"banded", false}, {"exhaustive", true}} {
			b.Run(fmt.Sprintf("nodes=%d/%s", nodes, mode.name), func(b *testing.B) {
				cfg := Config{Nodes: spreadNodes(nodes), Seed: 1, exhaustive: mode.exhaustive}
				var f *Fleet
				placed := 0
				for i := 0; i < b.N; i++ {
					if f == nil || placed == 2*nodes {
						b.StopTimer()
						if f != nil {
							f.Close()
						}
						var err error
						if f, err = New(cfg); err != nil {
							b.Fatal(err)
						}
						placed = 0
						b.StartTimer()
					}
					placeHeld(b, f, app, sched, placed)
					placed++
				}
				b.StopTimer()
				f.Close()
			})
		}
	}
}
