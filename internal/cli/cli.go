// Package cli holds the small conventions shared by every command in
// cmd/: errors print to stderr as "<cmd>: <message>" and terminate the
// process with exit code 1. Centralizing them keeps the tools' failure
// behavior uniform (and testable — osExit is patchable).
package cli

import (
	"fmt"
	"os"
)

// osExit is patched by tests to observe exit codes without dying.
var osExit = os.Exit

// Fatal prints "<cmd>: <err>" to stderr and exits 1.
func Fatal(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	osExit(1)
}

// FatalIf is Fatal when err is non-nil and a no-op otherwise — the
// common guard after each fallible setup step.
func FatalIf(cmd string, err error) {
	if err != nil {
		Fatal(cmd, err)
	}
}

// CheckCount returns an error naming the flag when the count n is below
// min, and nil otherwise. The engines, the profiler and the optimizer
// read a count they cannot use as their own default, which a command's
// output would then misstate, so the commands refuse such a count.
func CheckCount(flag string, n, min int) error {
	if n < min {
		return fmt.Errorf("-%s must be >= %d, got %d", flag, min, n)
	}
	return nil
}

// Fatalf is Fatal with a formatted message.
func Fatalf(cmd, format string, args ...any) {
	Fatal(cmd, fmt.Errorf(format, args...))
}
