// Package metrics provides the runtime instrumentation layer of the
// BT-Implementer: per-stage dispatch counters and service-time
// histograms, per-queue occupancy and wait/stall tracking, and per-pool
// utilization. One Pipeline collector serves both execution engines —
// the Real engine records wall-clock durations from its dispatcher
// goroutines, the Sim engine records virtual-time durations from the
// discrete-event loop — so a metrics table reads identically whichever
// engine produced it.
//
// Every recording method is lock-free, allocation-free, and safe for
// concurrent use; attaching a collector must not perturb the run it
// observes (the Sim engine's determinism is a hard requirement).
package metrics

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// StageStats accumulates one pipeline stage's execution metrics.
type StageStats struct {
	// Name is the stage name; Chunk and PU locate it in the schedule.
	Name  string
	Chunk int
	PU    string

	dispatches atomic.Uint64
	service    Histogram
}

// Dispatches returns how many times the stage executed.
func (s *StageStats) Dispatches() uint64 { return s.dispatches.Load() }

// Service returns the stage's service-time histogram.
func (s *StageStats) Service() *Histogram { return &s.service }

// QueueStats accumulates one SPSC edge's metrics. Wait is consumer-side
// starvation (the downstream dispatcher had nothing to do); Stall is
// producer-side backpressure (the upstream dispatcher could not hand off
// — the signature of a slow consumer chunk).
type QueueStats struct {
	// Label names the edge, e.g. "chunk 0 → 1".
	Label string
	// Cap is the edge capacity.
	Cap int

	pushes   atomic.Uint64
	pops     atomic.Uint64
	maxDepth atomic.Int64
	wait     Histogram
	stall    Histogram
}

// Pushes and Pops return the edge's transfer counters.
func (q *QueueStats) Pushes() uint64 { return q.pushes.Load() }

// Pops returns how many elements were consumed from the edge.
func (q *QueueStats) Pops() uint64 { return q.pops.Load() }

// MaxDepth returns the highest observed occupancy.
func (q *QueueStats) MaxDepth() int { return int(q.maxDepth.Load()) }

// Wait returns the consumer-side wait histogram.
func (q *QueueStats) Wait() *Histogram { return &q.wait }

// Stall returns the producer-side backpressure histogram.
func (q *QueueStats) Stall() *Histogram { return &q.stall }

// PoolStats accumulates one worker pool's utilization.
type PoolStats struct {
	// PU names the pool's processing-unit class; Width is its lane count.
	PU    string
	Width int

	busy   atomic.Int64 // currently executing workers
	busyNs atomic.Int64 // integrated worker-busy time
}

// WorkerStart marks one worker lane busy.
func (p *PoolStats) WorkerStart() { p.busy.Add(1) }

// WorkerDone marks the lane idle again and integrates its busy time.
func (p *PoolStats) WorkerDone(d time.Duration) {
	p.busy.Add(-1)
	if d > 0 {
		p.busyNs.Add(int64(d))
	}
}

// AddBusy integrates busy lane-time directly (the Sim engine's path,
// which knows busy intervals analytically).
func (p *PoolStats) AddBusy(d time.Duration) {
	if d > 0 {
		p.busyNs.Add(int64(d))
	}
}

// Busy returns the number of currently executing workers.
func (p *PoolStats) Busy() int { return int(p.busy.Load()) }

// BusyTime returns the integrated per-lane busy time.
func (p *PoolStats) BusyTime() time.Duration { return time.Duration(p.busyNs.Load()) }

// Utilization returns busy lane-seconds divided by elapsed×width — the
// fraction of the pool's capacity the run actually used.
func (p *PoolStats) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 || p.Width <= 0 {
		return 0
	}
	return float64(p.busyNs.Load()) / (float64(elapsed) * float64(p.Width))
}

// Pipeline is one execution run's metrics collector. Construct with New,
// hand it to the engine via pipeline.Options.Metrics, and render with
// Table after the run. The accessors (Stage, Queue, Pool) return stable
// pointers, so hot paths can cache them and record without indirection.
type Pipeline struct {
	stages []StageStats
	queues []QueueStats
	pools  []PoolStats

	elapsedNs atomic.Int64
}

// New builds a collector for nStages stages, nQueues edges, and nPools
// worker pools. Labels are filled in by the engine (or by
// pipeline.NewMetrics, which sizes and labels a collector from a Plan).
func New(nStages, nQueues, nPools int) *Pipeline {
	return &Pipeline{
		stages: make([]StageStats, nStages),
		queues: make([]QueueStats, nQueues),
		pools:  make([]PoolStats, nPools),
	}
}

// NumStages, NumQueues, NumPools report the collector's shape.
func (m *Pipeline) NumStages() int { return len(m.stages) }

// NumQueues returns the number of tracked edges.
func (m *Pipeline) NumQueues() int { return len(m.queues) }

// NumPools returns the number of tracked worker pools.
func (m *Pipeline) NumPools() int { return len(m.pools) }

// Stage returns stage i's stats.
func (m *Pipeline) Stage(i int) *StageStats { return &m.stages[i] }

// Queue returns edge i's stats.
func (m *Pipeline) Queue(i int) *QueueStats { return &m.queues[i] }

// Pool returns pool i's stats.
func (m *Pipeline) Pool(i int) *PoolStats { return &m.pools[i] }

// SetElapsed records the run's total duration (wall for Real, virtual
// for Sim), the denominator for utilization figures.
func (m *Pipeline) SetElapsed(d time.Duration) { m.elapsedNs.Store(int64(d)) }

// Elapsed returns the recorded run duration.
func (m *Pipeline) Elapsed() time.Duration { return time.Duration(m.elapsedNs.Load()) }

// StageDone records one completed stage execution and its service
// time. Like every recording method below, it is safe for concurrent
// use and allocation-free.
func (m *Pipeline) StageDone(stage int, service time.Duration) {
	s := &m.stages[stage]
	s.dispatches.Add(1)
	s.service.Observe(service)
}

// QueueWait records how long a consumer waited for an element on edge.
func (m *Pipeline) QueueWait(edge int, wait time.Duration) {
	q := &m.queues[edge]
	q.pops.Add(1)
	q.wait.Observe(wait)
}

// QueueStall records how long a producer waited for space on edge
// (backpressure from the downstream chunk).
func (m *Pipeline) QueueStall(edge int, stall time.Duration) {
	q := &m.queues[edge]
	q.pushes.Add(1)
	q.stall.Observe(stall)
}

// QueueDepth records an occupancy observation for edge.
func (m *Pipeline) QueueDepth(edge int, depth int) {
	q := &m.queues[edge]
	for {
		cur := q.maxDepth.Load()
		if int64(depth) <= cur || q.maxDepth.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// Merge folds another collector's rows into m — the runtime layer's
// per-session aggregation across execution waves, whose plans (and thus
// queue/pool shapes) may differ between waves:
//
//   - Stage rows merge by index up to the shorter collector — stage
//     indexing is application-stable across any plan of the same app.
//     Labels transfer onto unlabeled target rows; a stage re-planned
//     onto a different chunk/PU keeps the label of its latest merge, so
//     the table reflects the current placement.
//   - Queue rows merge by index only when both collectors track the same
//     number of edges (same chunking); otherwise they are skipped — edge
//     i means a different link under a different chunking.
//   - Pool rows merge only when both sides have the same pool count and
//     identical PU labels in the same order.
//   - Elapsed accumulates, so utilization stays busy-time over total
//     tracked time.
//
// Merge quiescent collectors: each counter is read atomically but the
// merge is not an atomic snapshot of other.
func (m *Pipeline) Merge(other *Pipeline) {
	if other == nil {
		return
	}
	nStages := len(m.stages)
	if len(other.stages) < nStages {
		nStages = len(other.stages)
	}
	for i := 0; i < nStages; i++ {
		dst, src := &m.stages[i], &other.stages[i]
		if src.Name != "" {
			dst.Name, dst.Chunk, dst.PU = src.Name, src.Chunk, src.PU
		}
		dst.dispatches.Add(src.dispatches.Load())
		dst.service.Merge(&src.service)
	}
	if len(m.queues) == len(other.queues) {
		for i := range m.queues {
			dst, src := &m.queues[i], &other.queues[i]
			if src.Label != "" {
				dst.Label, dst.Cap = src.Label, src.Cap
			}
			dst.pushes.Add(src.pushes.Load())
			dst.pops.Add(src.pops.Load())
			for {
				cur := dst.maxDepth.Load()
				od := src.maxDepth.Load()
				if od <= cur || dst.maxDepth.CompareAndSwap(cur, od) {
					break
				}
			}
			dst.wait.Merge(&src.wait)
			dst.stall.Merge(&src.stall)
		}
	}
	if poolsCompatible(m.pools, other.pools) {
		for i := range m.pools {
			dst, src := &m.pools[i], &other.pools[i]
			if src.Width > dst.Width {
				dst.Width = src.Width
			}
			dst.busyNs.Add(src.busyNs.Load())
		}
	}
	m.elapsedNs.Add(other.elapsedNs.Load())
}

// poolsCompatible reports whether two pool-row sets describe the same
// pools: equal length and matching PU labels in order.
func poolsCompatible(a, b []PoolStats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PU != b[i].PU {
			return false
		}
	}
	return len(a) > 0
}

// Table renders the collector as a fixed-width text report: a per-stage
// service table, a per-queue occupancy/backpressure table, and a per-pool
// utilization table.
func (m *Pipeline) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %-8s %-16s %9s %10s %10s %10s %10s\n",
		"chk", "pu", "stage", "dispatch", "mean", "p50", "p95", "max")
	for i := range m.stages {
		s := &m.stages[i]
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("stage %d", i)
		}
		h := &s.service
		fmt.Fprintf(&b, "%-3d %-8s %-16s %9d %10s %10s %10s %10s\n",
			s.Chunk, s.PU, name, s.Dispatches(),
			fmtDur(h.Mean()), fmtDur(h.Quantile(0.5)), fmtDur(h.Quantile(0.95)), fmtDur(h.Max()))
	}
	if len(m.queues) > 0 {
		fmt.Fprintf(&b, "\n%-16s %5s %9s %9s %10s %10s\n",
			"queue", "cap", "depth", "pops", "mean wait", "mean stall")
		for i := range m.queues {
			q := &m.queues[i]
			label := q.Label
			if label == "" {
				label = fmt.Sprintf("edge %d", i)
			}
			fmt.Fprintf(&b, "%-16s %5d %9d %9d %10s %10s\n",
				label, q.Cap, q.MaxDepth(), q.Pops(),
				fmtDur(q.wait.Mean()), fmtDur(q.stall.Mean()))
		}
	}
	if len(m.pools) > 0 {
		elapsed := m.Elapsed()
		fmt.Fprintf(&b, "\n%-8s %6s %12s %12s\n", "pool", "width", "busy", "util")
		for i := range m.pools {
			p := &m.pools[i]
			fmt.Fprintf(&b, "%-8s %6d %12s %11.1f%%\n",
				p.PU, p.Width, fmtDur(p.BusyTime()), p.Utilization(elapsed)*100)
		}
		fmt.Fprintf(&b, "\nelapsed %s\n", fmtDur(elapsed))
	}
	return b.String()
}
