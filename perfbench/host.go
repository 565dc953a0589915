package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the CPU time the hypervisor has taken from this machine's
// CPUs, summed over them (the steal column of /proc/stat); 0 where it is
// not available.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// unstolen is the part of a wall-clock interval d that was not lost to
// the hypervisor. The benchmark shares its machine: when a neighbour takes
// CPUs away, wall time measures the neighbour (on a 2-CPU machine,
// 20-second runs lost 0.01 to 26 seconds to steal). The machine's stolen
// time st is summed over its CPUs; taken as spread evenly, each CPU lost
// st/N. A thread that ran the whole interval was delayed by that much, and
// so was a process whose threads kept several CPUs busy at once, since
// they were delayed side by side; a process that ran for only part of the
// interval was exposed to that part of it. So the delay is st/N times the
// process's CPU time cpu over the time it could have run, d - st/N, capped
// at 1. The correction never exceeds one CPU's share of the steal; if the
// steal fell unevenly it is right only on average. With no steal it is d
// itself.
func unstolen(d, cpu, st time.Duration) time.Duration {
	if st <= 0 || d <= 0 {
		return d
	}
	perCPU := float64(st) / float64(runtime.NumCPU())
	avail := float64(d) - perCPU
	if avail <= 0 {
		return d // steal ticks rounded past the interval
	}
	return d - time.Duration(perCPU*min(float64(cpu)/avail, 1))
}
