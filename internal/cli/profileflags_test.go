package cli

import (
	"flag"
	"path/filepath"
	"testing"
)

// TestProfileFlagsOffAndBadPath pins that unset flags start and stop
// cleanly and that an unwritable -cpuprofile path fails Start. The
// commands' TestProfileFlagsSmoke tests cover writing both profiles.
func TestProfileFlagsOffAndBadPath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	off := AddProfileFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	bad := &ProfileFlags{CPUProfile: filepath.Join(t.TempDir(), "missing", "cpu.out")}
	if _, err := bad.Start(); err == nil {
		t.Fatal("Start accepted an unwritable -cpuprofile path")
	}
}
