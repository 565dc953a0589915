package sched_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bettertogether/internal/profiler"
	"bettertogether/internal/sched"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

// candidatesGoldenPath holds Candidates' ranked pools over the paper
// grid, recorded bit for bit. The fixture is never regenerated to make a
// change pass: a diff here means a planned schedule, its predicted
// latency or its gapness moved.
var candidatesGoldenPath = filepath.Join("testdata", "candidates_golden.json")

// candidateBits is one ranked candidate: its schedule, and its Predicted
// and Gap as IEEE-754 bits in hex so the comparison is exact.
type candidateBits struct {
	Schedule  string `json:"schedule"`
	Predicted string `json:"predicted"`
	Gap       string `json:"gap"`
}

// candidatesGoldenCase is one recorded Candidates call.
type candidatesGoldenCase struct {
	Name       string          `json:"name"`
	Candidates []candidateBits `json:"candidates"`
}

// runtimeEnvs returns the BaseEnv variants a runtime plans under: none,
// one resident on the device's last class (the accelerator on every
// catalog device), and residents on its first and last classes.
func runtimeEnvs(dev *soc.Device) []struct {
	name string
	env  soc.Env
} {
	classes := dev.Classes()
	first, last := classes[0], classes[len(classes)-1]
	return []struct {
		name string
		env  soc.Env
	}{
		{"empty", nil},
		{"one", soc.Env{last: {MemIntensity: 0.3}}},
		{"two", soc.Env{first: {MemIntensity: 0.2}, last: {MemIntensity: 0.55}}},
	}
}

// candidatesGoldenCases plans the four applications on the four catalog
// devices under each runtimeEnvs variant, with every strategy at K = 20
// and K = 1.
func candidatesGoldenCases(t *testing.T) []candidatesGoldenCase {
	t.Helper()
	strategies := []sched.Strategy{sched.BetterTogether, sched.LatencyOnlyHeavy, sched.LatencyOnlyIsolated}
	var out []candidatesGoldenCase
	cell := int64(0)
	for _, name := range []string{"alexnet-dense", "alexnet-sparse", "octree", "vision"} {
		app, err := btapps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dev := range soc.Catalog() {
			for _, v := range runtimeEnvs(dev) {
				cell++
				tabs := profiler.ProfileBoth(app, dev, profiler.Config{Reps: 8, Seed: 3000 + cell, BaseEnv: v.env})
				for _, strat := range strategies {
					for _, k := range []int{20, 1} {
						o := sched.New(app, dev, tabs)
						o.K = k
						c := candidatesGoldenCase{Name: fmt.Sprintf("%s/%s/%s/%v/k%d", name, dev.Name, v.name, strat, k)}
						for _, cand := range o.Candidates(strat) {
							c.Candidates = append(c.Candidates, candidateBits{
								Schedule:  cand.Schedule.String(),
								Predicted: fmt.Sprintf("%016x", math.Float64bits(cand.Predicted)),
								Gap:       fmt.Sprintf("%016x", math.Float64bits(cand.Gap)),
							})
						}
						out = append(out, c)
					}
				}
			}
		}
	}
	return out
}

// TestCandidatesGolden pins every ranked candidate, bit for bit, against
// the committed fixture.
func TestCandidatesGolden(t *testing.T) {
	raw, err := os.ReadFile(candidatesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []candidatesGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := candidatesGoldenCases(t)
	if len(got) != len(want) {
		t.Fatalf("grid produced %d cases, fixture holds %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			bad++
			if bad <= 5 {
				t.Errorf("case %d differs:\n got %s\nwant %s", i, g, w)
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cases differ from %s", bad, len(want), candidatesGoldenPath)
	}
}
