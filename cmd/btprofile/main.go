// Command btprofile runs the BT-Profiler on one application-device pair
// and prints the profiling table(s).
//
// Usage:
//
//	btprofile -app octree -device pixel7a            # both modes
//	btprofile -app alexnet-sparse -device jetson -mode isolated
//	btprofile -app alexnet-dense -device oneplus11 -reps 50
package main

import (
	"flag"
	"fmt"
	"os"

	"bettertogether/internal/cli"
	"bettertogether/internal/core"
	"bettertogether/internal/profiler"
	"bettertogether/internal/report"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

func main() {
	appName := flag.String("app", "octree", "application: alexnet-dense, alexnet-sparse, octree, vision")
	devName := flag.String("device", soc.Pixel7a, "device: pixel7a, oneplus11, jetson, jetson-lp")
	mode := flag.String("mode", "both", "profiling mode: isolated, heavy, both")
	reps := flag.Int("reps", profiler.DefaultReps, "measurement repetitions per entry")
	seed := flag.Int64("seed", 1, "measurement noise seed")
	out := flag.String("o", "", "write the table(s) as JSON to this path prefix (suffixes -isolated.json / -heavy.json)")
	flag.Parse()
	fatalIf(cli.CheckCount("reps", *reps, 1))

	app, err := btapps.ByName(*appName)
	fatalIf(err)
	dev, err := soc.DeviceByName(*devName)
	fatalIf(err)
	cfg := profiler.Config{Reps: *reps, Seed: *seed}

	switch *mode {
	case "isolated":
		t := profiler.Profile(app, dev, core.Isolated, cfg)
		printTable(t)
		save(t, *out, "-isolated.json")
	case "heavy":
		t := profiler.Profile(app, dev, core.InterferenceHeavy, cfg)
		printTable(t)
		save(t, *out, "-heavy.json")
	case "both":
		tabs := profiler.ProfileBoth(app, dev, cfg)
		printTable(tabs.Isolated)
		fmt.Println()
		printTable(tabs.Heavy)
		fmt.Println()
		printRatios(tabs)
		save(tabs.Isolated, *out, "-isolated.json")
		save(tabs.Heavy, *out, "-heavy.json")
	default:
		fatalIf(fmt.Errorf("unknown mode %q", *mode))
	}
}

// save writes the table when a -o prefix was given.
func save(t *core.ProfileTable, prefix, suffix string) {
	if prefix == "" {
		return
	}
	path := prefix + suffix
	fatalIf(core.SaveTable(t, path))
	fmt.Fprintf(os.Stderr, "btprofile: wrote %s\n", path)
}

func printTable(t *core.ProfileTable) {
	tab := report.NewTable(
		fmt.Sprintf("%s on %s — %s profile (ms)", t.App, t.Device, t.Mode),
		append([]string{"stage"}, classStrings(t.PUs)...)...)
	for i, name := range t.Stages {
		cells := []string{name}
		for j := range t.PUs {
			cells = append(cells, report.Ms(t.Latency[i][j]))
		}
		tab.AddRow(cells...)
	}
	fmt.Print(tab.Render())
}

func printRatios(tabs profiler.Tables) {
	tab := report.NewTable("interference-heavy / isolated ratio per PU", "PU", "ratio")
	ratios := profiler.InterferenceRatios(tabs)
	for _, pu := range tabs.Heavy.PUs {
		tab.AddRow(string(pu), report.F2(ratios[pu]))
	}
	fmt.Print(tab.Render())
}

func classStrings(pus []core.PUClass) []string {
	out := make([]string, len(pus))
	for i, p := range pus {
		out[i] = string(p)
	}
	return out
}

func fatalIf(err error) { cli.FatalIf("btprofile", err) }
