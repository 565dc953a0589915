package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// runMainEnv makes a re-executed test binary run the command's main with
// its own arguments instead of the tests.
const runMainEnv = "BTBENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfileFlagsSmoke runs the fig7 experiment with -cpuprofile and
// -memprofile, alone and followed by an unknown experiment that makes
// the command fail, and checks that each run writes both profiles as
// non-empty pprof files.
func TestProfileFlagsSmoke(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		fail bool
	}{
		{"ok", []string{"-exp", "fig7"}, false},
		{"failing", []string{"-exp", "fig7,nosuch"}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
			cmd := exec.Command(os.Args[0], append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			if out, err := cmd.CombinedOutput(); (err != nil) != c.fail {
				t.Fatalf("btbench: err %v, want failure %v\n%s", err, c.fail, out)
			}
			for _, path := range []string{cpu, mem} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
					t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(path), len(b))
				}
			}
		})
	}
}
