package sched_test

import (
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/internal/solver"
	"bettertogether/pkg/btapps"
)

// TestOptimumGapClauseAdmitsOnlyUniform pins what the utilization
// filter's "optimum gap" clause does today over the paper grid. Every
// one-class schedule has T_max = T_min, so level one's minimum gapness
// is exactly 0 and the clause admits only the M uniform schedules: with
// UtilSlack 0 (the slack clause off) BetterTogether's whole pool is
// those M schedules. Whether the paper's O1 threshold means this is an
// open fidelity question (EXPERIMENTS.md); this test records the
// current behaviour, not the paper's.
func TestOptimumGapClauseAdmitsOnlyUniform(t *testing.T) {
	cell := int64(0)
	for _, name := range []string{"alexnet-dense", "alexnet-sparse", "octree", "vision"} {
		app, err := btapps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range soc.Catalog() {
			cell++
			tabs := profiler.ProfileBoth(app, dev, profiler.Config{Reps: 8, Seed: 5000 + cell})
			tab := tabs.Heavy
			if gap, ok := solver.MinGap(&solver.Problem{N: len(tab.Stages), M: len(tab.PUs), Time: tab.Latency}); !ok || gap != 0 {
				t.Errorf("%s/%s: minimum gapness %v (ok %v), want exactly 0", name, dev.Name, gap, ok)
			}
			o := sched.New(app, dev, tabs)
			o.UtilSlack = 0
			o.K = 1 << 12
			cands := o.Candidates(sched.BetterTogether)
			uniform := map[core.PUClass]bool{}
			for _, c := range cands {
				if chunks := c.Schedule.Chunks(); len(chunks) == 1 {
					uniform[chunks[0].PU] = true
					continue
				}
				t.Errorf("%s/%s: optimum-gap clause admits pipelined %s (gap %v)", name, dev.Name, c.Schedule, c.Gap)
			}
			if len(cands) != len(dev.Classes()) || len(uniform) != len(dev.Classes()) {
				t.Errorf("%s/%s: clause admits %d schedules over %d classes, want the %d uniform ones",
					name, dev.Name, len(cands), len(uniform), len(dev.Classes()))
			}
		}
	}
}
