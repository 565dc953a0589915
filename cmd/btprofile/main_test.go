package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes a re-executed test binary run the command's main with
// its own arguments instead of the tests.
const runMainEnv = "BTPROFILE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadCounts pins that a repetition count the profiler would
// replace with its default exits non-zero naming the flag, instead of
// printing the default's table under the given value.
func TestRejectsBadCounts(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" for a run that must succeed
	}{
		{[]string{"-reps", "-3"}, "-reps must be"},
		{[]string{"-reps", "0"}, "-reps must be"},
		{[]string{"-reps", "1"}, ""},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		if c.want == "" {
			if err != nil {
				t.Errorf("btprofile %v: %v, output %q", c.args, err, out)
			}
			continue
		}
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("btprofile %v: err %v, output %q; want a failure saying %q", c.args, err, out, c.want)
		}
	}
}
