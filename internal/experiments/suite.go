// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5) on the simulated device fleet. Each experiment
// returns a structured result (consumed by tests and EXPERIMENTS.md) plus
// a rendered report. The per-experiment index lives in DESIGN.md.
package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"

	"bettertogether/internal/apps/alexnet"
	"bettertogether/internal/apps/octree"
	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/profiler"
	"bettertogether/internal/soc"
)

// simEngine runs every experiment measurement: the paper's numbers all
// come from the deterministic simulator.
var simEngine pipeline.SimEngine

// Every measured execution runs suiteTasks tasks after suiteWarmup, as
// the paper measures 30 tasks per run after warmup (Sec. 4); every
// profiling run repeats profiler.DefaultReps times from a seed derived
// from suiteProfileSeed.
const (
	suiteTasks       = 30
	suiteWarmup      = 5
	suiteProfileSeed = 9000
)

// Paper-style display labels (Fig. 6 uses CIFAR-D/CIFAR-S/Tree).
var appLabels = map[string]string{
	"alexnet-dense":  "CIFAR-D",
	"alexnet-sparse": "CIFAR-S",
	"octree-uniform": "Tree",
}

// deviceLabels are the column labels of the heatmaps.
var deviceLabels = map[string]string{
	soc.Pixel7a:   "Google",
	soc.OnePlus11: "OnePlus",
	soc.Jetson:    "Jetson",
	soc.JetsonLP:  "Jetson (LP)",
}

// Suite owns the evaluation fleet and caches profiling runs, which are
// shared across experiments exactly as the paper reuses one profiling
// table per app-device pair. A Suite is safe for concurrent use: the
// profiling cache is guarded by a mutex with per-combo singleflight, so
// one combo never profiles twice even under concurrent callers.
type Suite struct {
	Devices []*soc.Device
	Apps    []*core.Application
	// Workers bounds how many experiment-grid cells run concurrently:
	// 0 or 1 runs serially (the default), negative selects GOMAXPROCS,
	// and larger values are capped at GOMAXPROCS. Every cell derives its
	// seeds from identifying strings alone, so results are identical at
	// any worker count — pinned by test against the serial path.
	Workers int

	mu     sync.Mutex
	tables map[string]*tableEntry
}

// tableEntry is one profiling-cache slot; its once gives per-key
// singleflight without holding the cache mutex across a profiling run.
type tableEntry struct {
	once   sync.Once
	tables profiler.Tables
}

// NewSuite assembles the paper's 3 applications × 4 devices.
func NewSuite() *Suite {
	return &Suite{
		Devices: soc.Catalog(),
		Apps: []*core.Application{
			alexnet.NewDense(alexnet.DefaultSeed, 1),
			alexnet.NewSparse(alexnet.DefaultSeed, alexnet.DefaultSparseBatch),
			octree.NewApplication(octree.DefaultPoints, octree.UniformGen{}),
		},
	}
}

// AppLabel returns the paper-style label for an application name.
func AppLabel(name string) string {
	if l, ok := appLabels[name]; ok {
		return l
	}
	return name
}

// DeviceLabel returns the paper-style label for a device name.
func DeviceLabel(name string) string {
	if l, ok := deviceLabels[name]; ok {
		return l
	}
	return name
}

// profileConfig is the profiling configuration of one purpose, seeded
// from identifying strings.
func profileConfig(parts ...string) profiler.Config {
	return profiler.Config{Reps: profiler.DefaultReps, Seed: suiteProfileSeed + seedFor(parts...)%100000}
}

// seedFor derives a stable per-purpose seed from identifying strings.
func seedFor(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// Tables returns (and caches) both profiling tables for a combo. It is
// safe for concurrent use: the cache map is mutex-guarded and each combo
// profiles exactly once (per-key singleflight) — concurrent callers for
// the same combo block on the first profiling run and share its result.
func (s *Suite) Tables(app *core.Application, dev *soc.Device) profiler.Tables {
	key := app.Name + "@" + dev.Name
	s.mu.Lock()
	if s.tables == nil {
		s.tables = make(map[string]*tableEntry)
	}
	e, ok := s.tables[key]
	if !ok {
		e = &tableEntry{}
		s.tables[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.tables = profiler.ProfileBoth(app, dev, profileConfig("profile", key))
	})
	return e.tables
}

// workers resolves the grid worker bound for n cells.
func (s *Suite) workers(n int) int {
	w := s.Workers
	if w < 0 || w > runtime.GOMAXPROCS(0) {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forEach runs fn(0..n-1) — one call per experiment-grid cell — across
// the suite's worker pool, serially when Workers is 0 or 1. Cells must
// write results into caller-owned slots indexed by i; aggregation and
// rendering stay serial in the caller, which is what keeps parallel
// output byte-identical to the serial path. When cells fail, the error
// with the lowest index is returned regardless of completion order.
func (s *Suite) forEach(n int, fn func(i int) error) error {
	w := s.workers(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(map[int]error)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := fn(i); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if len(errs) == 0 {
		return nil
	}
	keys := make([]int, 0, len(errs))
	for i := range errs {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	return errs[keys[0]]
}

// runOpts builds deterministic execution options for a combo and purpose.
func (s *Suite) runOpts(purpose string, app *core.Application, dev *soc.Device, extra string) pipeline.Options {
	return pipeline.Options{
		Tasks:  suiteTasks,
		Warmup: suiteWarmup,
		Seed:   seedFor(purpose, app.Name, dev.Name, extra),
	}
}

// Measure executes a schedule on a combo and returns the per-task
// latency in seconds.
func (s *Suite) Measure(app *core.Application, dev *soc.Device, sch core.Schedule, purpose string) (float64, error) {
	plan, err := pipeline.NewPlan(app, dev, sch)
	if err != nil {
		return 0, fmt.Errorf("experiments: %s on %s: %w", app.Name, dev.Name, err)
	}
	r := simEngine.Run(context.Background(), plan, s.runOpts(purpose, app, dev, sch.Key()))
	return r.PerTask, nil
}

// AppByName returns the suite application with the given name.
func (s *Suite) AppByName(name string) (*core.Application, error) {
	for _, a := range s.Apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown app %q", name)
}

// DeviceByName returns the suite device with the given name.
func (s *Suite) DeviceByName(name string) (*soc.Device, error) {
	for _, d := range s.Devices {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown device %q", name)
}
