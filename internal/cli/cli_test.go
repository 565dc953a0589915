package cli

import (
	"errors"
	"fmt"
	"testing"
)

// withExitCapture patches osExit to record codes instead of terminating,
// runs fn, and returns the recorded codes.
func withExitCapture(fn func()) []int {
	var codes []int
	old := osExit
	osExit = func(code int) { codes = append(codes, code) }
	defer func() { osExit = old }()
	fn()
	return codes
}

func TestFatalExitsOne(t *testing.T) {
	codes := withExitCapture(func() { Fatal("bttest", errors.New("boom")) })
	if len(codes) != 1 || codes[0] != 1 {
		t.Fatalf("Fatal exit codes = %v, want [1]", codes)
	}
}

func TestFatalIfNilIsNoop(t *testing.T) {
	codes := withExitCapture(func() { FatalIf("bttest", nil) })
	if len(codes) != 0 {
		t.Fatalf("FatalIf(nil) exited with %v, want no exit", codes)
	}
}

func TestFatalIfErrorExits(t *testing.T) {
	codes := withExitCapture(func() { FatalIf("bttest", errors.New("boom")) })
	if len(codes) != 1 || codes[0] != 1 {
		t.Fatalf("FatalIf(err) exit codes = %v, want [1]", codes)
	}
}

func TestFatalfFormats(t *testing.T) {
	codes := withExitCapture(func() { Fatalf("bttest", "unknown engine %q", "warp") })
	if len(codes) != 1 || codes[0] != 1 {
		t.Fatalf("Fatalf exit codes = %v, want [1]", codes)
	}
	// The formatted error itself must be well-formed.
	err := fmt.Errorf("unknown engine %q", "warp")
	if err.Error() != `unknown engine "warp"` {
		t.Fatalf("format sanity: %q", err)
	}
}

func TestCheckCount(t *testing.T) {
	for _, c := range []struct {
		n, min int
		want   string
	}{
		{1, 1, ""},
		{30, 1, ""},
		{0, 0, ""},
		{0, 1, "-tasks must be >= 1, got 0"},
		{-5, 1, "-tasks must be >= 1, got -5"},
		{-1, 0, "-tasks must be >= 0, got -1"},
	} {
		err := CheckCount("tasks", c.n, c.min)
		if got := fmt.Sprint(err); (err == nil) != (c.want == "") || (err != nil && got != c.want) {
			t.Errorf("CheckCount(tasks, %d, %d) = %v, want %q", c.n, c.min, err, c.want)
		}
	}
}
