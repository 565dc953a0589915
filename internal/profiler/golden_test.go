package profiler_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

// profileGoldenPath holds the profiler's tables over the paper grid,
// recorded bit for bit. The fixture is never regenerated to make a
// change pass: a diff here means a profiled latency moved.
var profileGoldenPath = filepath.Join("testdata", "profile_golden.json")

// profileGoldenCase is one recorded ProfileBoth call. Every table cell is
// stored as its IEEE-754 bits in hex so the comparison is exact.
type profileGoldenCase struct {
	Name     string     `json:"name"`
	Isolated [][]string `json:"isolated"`
	Heavy    [][]string `json:"heavy"`
}

func tableBits(t *core.ProfileTable) [][]string {
	out := make([][]string, len(t.Latency))
	for i, row := range t.Latency {
		for _, v := range row {
			out[i] = append(out[i], fmt.Sprintf("%016x", math.Float64bits(v)))
		}
	}
	return out
}

// goldenEnvs returns the BaseEnv variants: a resident on the device's
// first class (the measured class for that column), a class the device
// does not have, and poisoned intensities (NaN, negative, past full
// bandwidth) that the heavy environment must clamp where it adds a load
// and that stay raw where it does not.
func goldenEnvs(dev *soc.Device) []struct {
	name string
	env  soc.Env
} {
	classes := dev.Classes()
	poison := soc.Env{
		classes[0]:              {MemIntensity: math.NaN()},
		classes[len(classes)-1]: {MemIntensity: -0.4},
		"dsp":                   {MemIntensity: 1.7},
	}
	if len(classes) > 2 {
		poison[classes[1]] = soc.Load{MemIntensity: 1.3}
	}
	return []struct {
		name string
		env  soc.Env
	}{
		{"own", soc.Env{classes[0]: {MemIntensity: 0.35}}},
		{"foreign", soc.Env{"npu": {MemIntensity: 0.6}}},
		{"poison", poison},
	}
}

// goldenAdjust is a deterministic non-identity correction that depends on
// the stage, the class and the mean it rescales.
func goldenAdjust(stage string, pu core.PUClass, seconds float64) float64 {
	return seconds * (1 + float64(len(stage)+len(pu))/64)
}

// profileGoldenCases profiles the paper grid — four applications on the
// four catalog devices, both modes — at 30 and 8 repetitions, then the
// octree and vision cells at 8 repetitions under each goldenEnvs
// variant, and the octree cells with goldenAdjust (alone and with the
// own-class BaseEnv).
func profileGoldenCases(t *testing.T) []profileGoldenCase {
	t.Helper()
	apps := map[string]*core.Application{}
	names := []string{"alexnet-dense", "alexnet-sparse", "octree", "vision"}
	for _, name := range names {
		app, err := btapps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps[name] = app
	}
	var out []profileGoldenCase
	run := func(name string, app *core.Application, dev *soc.Device, cfg profiler.Config) {
		tabs := profiler.ProfileBoth(app, dev, cfg)
		out = append(out, profileGoldenCase{Name: name, Isolated: tableBits(tabs.Isolated), Heavy: tableBits(tabs.Heavy)})
	}
	cell := int64(0)
	for _, reps := range []int{30, 8} {
		for _, name := range names {
			for _, dev := range soc.Catalog() {
				cell++
				run(fmt.Sprintf("reps%d/%s/%s", reps, name, dev.Name), apps[name], dev,
					profiler.Config{Reps: reps, Seed: 2000 + cell})
			}
		}
	}
	for _, name := range []string{"octree", "vision"} {
		for _, dev := range soc.Catalog() {
			for _, v := range goldenEnvs(dev) {
				cell++
				run(fmt.Sprintf("env/%s/%s/%s", name, dev.Name, v.name), apps[name], dev,
					profiler.Config{Reps: 8, Seed: 2000 + cell, BaseEnv: v.env})
			}
		}
	}
	for _, dev := range soc.Catalog() {
		cell++
		run("adjust/octree/"+dev.Name, apps["octree"], dev,
			profiler.Config{Reps: 8, Seed: 2000 + cell, Adjust: goldenAdjust})
		cell++
		run("adjust/octree/"+dev.Name+"/own", apps["octree"], dev,
			profiler.Config{Reps: 8, Seed: 2000 + cell, Adjust: goldenAdjust, BaseEnv: goldenEnvs(dev)[0].env})
	}
	return out
}

// TestProfileGolden pins every profiled table cell, bit for bit, against
// the committed fixture.
func TestProfileGolden(t *testing.T) {
	raw, err := os.ReadFile(profileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []profileGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := profileGoldenCases(t)
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
		t.Errorf("%d of %d cases differ from %s", bad, len(want), profileGoldenPath)
	}
}
