package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileFlags bundles the Go profiler flags shared by btbench and
// btfleet, so a hot path can be profiled from the shipped commands
// (`go tool pprof <binary> <file>`) without patching a main. Both
// default off.
type ProfileFlags struct {
	// CPUProfile is the file the CPU profile of the run is written to
	// ("" = off).
	CPUProfile string
	// MemProfile is the file a heap profile is written to when the run
	// finishes ("" = off). It holds live and cumulative allocations, so
	// `-sample_index=alloc_space` shows where the run allocated.
	MemProfile string
}

// AddProfileFlags declares -cpuprofile and -memprofile on fs and returns
// the struct their parsed values land in.
func AddProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file when the run finishes")
	return p
}

// Start begins CPU profiling when -cpuprofile is set and returns the
// function that ends the profiled region: it stops the CPU profile and
// writes the heap profile when -memprofile is set. Call stop once, after
// the work to profile, on the error path too: a process that exits
// before it writes neither profile completely.
func (p *ProfileFlags) Start() (stop func() error, err error) {
	var cpu *os.File
	if p.CPUProfile != "" {
		if cpu, err = os.Create(p.CPUProfile); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if p.MemProfile != "" {
			errs = append(errs, writeHeapProfile(p.MemProfile))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// Collect first so the profile's live-heap view is current.
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	return errors.Join(err, f.Close())
}
