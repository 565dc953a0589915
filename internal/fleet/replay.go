package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/des"
	"bettertogether/internal/metrics"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

// PlacementRecord is one arrival's replay outcome, in trace order.
type PlacementRecord struct {
	// Seq is the arrival's index in the trace; At its logical time.
	Seq int     `json:"seq"`
	At  float64 `json:"at"`
	// App and Session identify what arrived.
	App     string `json:"app"`
	Session string `json:"session"`
	// Node is where it landed ("" when rejected); Choice its rank in the
	// candidate sweep (> 0 means spillover).
	Node   string `json:"node"`
	Choice int    `json:"choice"`
	// Rejected marks arrivals no node could admit; Reason carries the
	// fleet-wide refusal summary.
	Rejected bool   `json:"rejected,omitempty"`
	Reason   string `json:"reason,omitempty"`
	// Elapsed is the completed session's modeled latency in virtual
	// seconds (0 for rejected arrivals).
	Elapsed float64 `json:"elapsed"`
	// Deadline is the SLO budget applied to this session (arrival's own,
	// else ReplayOptions.SLODeadline); SLO is the verdict, "attained" or
	// "missed", computed at departure. Both absent when no deadline was
	// in play, so zero-deadline replay output is unchanged.
	Deadline float64 `json:"deadline,omitempty"`
	SLO      string  `json:"slo,omitempty"`
}

// DrainRecord is one drain control event's outcome during a replay.
type DrainRecord struct {
	// At is the drain's logical time; Node the cordoned node.
	At   float64 `json:"at"`
	Node string  `json:"node"`
	// Migrated counts held sessions moved off the node by this event.
	Migrated int `json:"migrated"`
}

// SampleRecord is one scheduled stats-sampling event: the fleet's
// placement counters as of a logical instant, letting a replay export
// a time series instead of only a final tally.
type SampleRecord struct {
	At         float64 `json:"at"`
	Arrivals   int     `json:"arrivals"`
	Placed     int     `json:"placed"`
	Spills     int     `json:"spills"`
	Rejected   int     `json:"rejected"`
	Migrations int     `json:"migrations,omitempty"`
}

// ReplayResult aggregates one trace replay.
type ReplayResult struct {
	// Arrivals, Placed, Spilled, Rejected are the fleet-wide counts for
	// this replay.
	Arrivals int `json:"arrivals"`
	Placed   int `json:"placed"`
	Spilled  int `json:"spilled"`
	Rejected int `json:"rejected"`
	// Records holds every arrival's outcome in trace order.
	Records []PlacementRecord `json:"records"`
	// Drains, Migrated and Samples report control-plane activity: one
	// DrainRecord per drain event, total sessions migrated (drains plus
	// rebalance sweeps), and the sampled counter time series. All empty —
	// and absent from the JSON — unless ReplayOptions scheduled them, so
	// a plain Replay's output is unchanged by their existence.
	Drains   []DrainRecord  `json:"drains,omitempty"`
	Migrated int            `json:"migrated,omitempty"`
	Samples  []SampleRecord `json:"samples,omitempty"`
	// P50 and P99 are completed-session latency quantiles in virtual
	// seconds.
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
	// SLO summarizes deadline attainment across the replay's
	// deadline-carrying sessions; nil (and absent from the JSON) unless
	// some arrival carried a deadline or ReplayOptions.SLODeadline was
	// set, so zero-deadline output is byte-identical to the pre-SLO
	// format.
	SLO *SLOSummary `json:"slo,omitempty"`
}

// SLOSummary is a replay's deadline-attainment section: counts over
// completed deadline-carrying sessions (rejected arrivals never ran
// and are excluded, mirroring the runtime's bt_slo_* counters) plus
// their latency quantiles in virtual seconds.
type SLOSummary struct {
	Sessions int     `json:"sessions"`
	Attained int     `json:"attained"`
	Missed   int     `json:"missed"`
	Fraction string  `json:"attained_fraction"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
}

// RejectionRate is rejected/arrivals rendered without NaN on an empty
// trace.
func (r ReplayResult) RejectionRate() string {
	if r.Arrivals == 0 {
		return "0"
	}
	return strconv.FormatFloat(float64(r.Rejected)/float64(r.Arrivals), 'f', 4, 64)
}

// ReplayOptions schedules control-plane behavior onto a replay's
// event timeline. The zero value replays the trace alone.
type ReplayOptions struct {
	// DrainNode, when non-empty, drains that node at logical time
	// DrainAt: it is cordoned out of placement and its held sessions
	// migrate elsewhere (place-elsewhere-then-release).
	DrainNode string
	DrainAt   float64
	// RebalanceEvery, when positive, schedules a rebalance sweep every
	// that many logical seconds across the trace horizon, retrying
	// migration for sessions stranded on drained nodes.
	RebalanceEvery float64
	// SampleEvery, when positive, samples the fleet's placement counters
	// every that many logical seconds into ReplayResult.Samples.
	SampleEvery float64
	// SLODeadline, when positive, applies this SLO budget (virtual
	// seconds) to every arrival that does not carry its own
	// Arrival.Deadline. Attainment is computed at each departure and
	// summarized into ReplayResult.SLO.
	SLODeadline float64
}

// Replay event priorities: events sharing a logical timestamp run
// departures first (capacity freed "now" is visible "now"), then
// control-plane events (a drain at t sees t's departures and shapes
// t's arrivals), then arrivals, then stats samples (a sample at t
// reports t's settled state). Within a priority, trace/schedule order
// breaks ties.
const (
	prioDepart = iota
	prioControl
	prioArrival
	prioSample
)

// Replay runs a trace through the fleet in logical time with no
// control-plane events scheduled. It is a thin wrapper over ReplayWith;
// its output is byte-identical to the historical lockstep replay loop
// (pinned by TestReplayDeterministic and the CI smoke comparison).
func (f *Fleet) Replay(t Trace) (ReplayResult, error) {
	return f.ReplayWith(t, ReplayOptions{})
}

// ReplayWith replays a trace on a dedicated discrete-event engine:
// every temporal behavior — arrivals, dwell-expiry departures, drain
// and rebalance sweeps, stats sampling — is a scheduled event on one
// priority-ordered timeline rather than a hand-rolled merge loop.
//
//   - An arrival is placed with runtime.AdmitOptions.Hold — planned,
//     admitted, and reserving headroom, but not executing. The
//     reservation immediately shapes every co-resident's interference
//     environment, exactly like a running session would.
//   - A departure starts the (possibly migrated) held session and waits
//     for it to run to completion before the event loop advances.
//   - Control events (drain, rebalance) move reservations between
//     nodes; a migrated session departs from wherever it lives when its
//     dwell expires.
//
// Because the Sim engine models co-location through the interference
// environment rather than actual concurrency, serializing execution
// this way changes no modeled latency — and makes the whole replay
// deterministic: one trace, one seed, one byte-identical result, every
// run.
func (f *Fleet) ReplayWith(t Trace, opts ReplayOptions) (ReplayResult, error) {
	if opts.DrainNode != "" && opts.DrainAt < 0 {
		return ReplayResult{}, fmt.Errorf("fleet: replay: negative drain time %v", opts.DrainAt)
	}
	if opts.SLODeadline < 0 {
		return ReplayResult{}, fmt.Errorf("fleet: replay: negative SLO deadline %v", opts.SLODeadline)
	}

	res := ReplayResult{
		Arrivals: len(t.Arrivals),
		Records:  make([]PlacementRecord, len(t.Arrivals)),
	}
	startMigrations := f.migrationCount()
	// Each distinct app name is resolved once per replay and the
	// application shared by all its arrivals: applications are
	// immutable, and sessions only draw fresh tasks from them.
	apps := map[string]*core.Application{}

	eng := des.New()
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}

	// Schedule the trace in order: within a timestamp and priority, seq
	// order equals trace order, reproducing the lockstep loop's stable
	// sort exactly — including the zero-dwell edge where an arrival's
	// own departure fires first and finds no session.
	horizon := 0.0
	sloEnabled := opts.SLODeadline > 0
	for i, a := range t.Arrivals {
		i, a := i, a
		if a.Deadline > 0 {
			sloEnabled = true
		}
		deadline := a.Deadline
		if deadline == 0 {
			deadline = opts.SLODeadline
		}
		if end := a.At + a.Dwell; end > horizon {
			horizon = end
		}
		eng.AtPrio(a.At, prioArrival, func() {
			if failed != nil {
				return
			}
			f.cfg.Trace.AdvanceTo(a.At)
			fail(f.replayArrival(&res, apps, i, a, deadline))
		})
		eng.AtPrio(a.At+a.Dwell, prioDepart, func() {
			if failed != nil {
				return
			}
			f.cfg.Trace.AdvanceTo(a.At + a.Dwell)
			fail(f.replayDeparture(&res.Records[i]))
		})
	}

	if opts.DrainNode != "" {
		at := opts.DrainAt
		eng.AtPrio(at, prioControl, func() {
			if failed != nil {
				return
			}
			f.cfg.Trace.AdvanceTo(at)
			moved, err := f.Drain(opts.DrainNode)
			if err != nil {
				fail(fmt.Errorf("fleet: replay: %w", err))
				return
			}
			res.Drains = append(res.Drains, DrainRecord{At: at, Node: opts.DrainNode, Migrated: moved})
		})
	}
	if opts.RebalanceEvery > 0 {
		for at := opts.RebalanceEvery; at <= horizon; at += opts.RebalanceEvery {
			at := at
			eng.AtPrio(at, prioControl, func() {
				if failed != nil {
					return
				}
				f.cfg.Trace.AdvanceTo(at)
				if _, err := f.Rebalance(); err != nil {
					fail(fmt.Errorf("fleet: replay: rebalance: %w", err))
				}
			})
		}
	}
	if opts.SampleEvery > 0 {
		for at := opts.SampleEvery; at <= horizon; at += opts.SampleEvery {
			at := at
			eng.AtPrio(at, prioSample, func() {
				if failed != nil {
					return
				}
				res.Samples = append(res.Samples, f.sample(at))
			})
		}
	}

	eng.Run()
	res.Migrated = f.migrationCount() - startMigrations
	if failed != nil {
		return res, failed
	}
	res.P50 = f.latency.Quantile(0.50).Seconds()
	res.P99 = f.latency.Quantile(0.99).Seconds()
	if sloEnabled {
		res.SLO = summarizeSLO(res.Records)
	}
	return res, nil
}

// summarizeSLO folds the replay records' per-session verdicts into the
// attainment section. Rejected arrivals never ran, so they carry no
// verdict and are excluded — the counts line up with the runtimes'
// bt_slo_* families.
func summarizeSLO(records []PlacementRecord) *SLOSummary {
	sum := &SLOSummary{}
	var h metrics.Histogram
	for _, rec := range records {
		if rec.SLO == "" {
			continue
		}
		sum.Sessions++
		if rec.SLO == "attained" {
			sum.Attained++
		} else {
			sum.Missed++
		}
		h.Observe(time.Duration(rec.Elapsed * float64(time.Second)))
	}
	if sum.Sessions == 0 {
		sum.Fraction = "0"
	} else {
		sum.Fraction = strconv.FormatFloat(float64(sum.Attained)/float64(sum.Sessions), 'f', 4, 64)
	}
	sum.P50 = h.Quantile(0.50).Seconds()
	sum.P99 = h.Quantile(0.99).Seconds()
	return sum
}

// replayArrival handles one arrival event: resolve the application
// (through the replay's apps memo), place it held (carrying its
// resolved SLO deadline), and record the outcome.
func (f *Fleet) replayArrival(res *ReplayResult, apps map[string]*core.Application, i int, a Arrival, deadline float64) error {
	rec := &res.Records[i]
	rec.Seq = i
	rec.At = a.At
	rec.App = a.App
	rec.Session = a.Session
	if rec.Session == "" {
		rec.Session = fmt.Sprintf("%s#%d", a.App, i)
	}
	if deadline > 0 {
		rec.Deadline = deadline
	}
	app := apps[a.App]
	if app == nil {
		var err error
		if app, err = btapps.ByName(a.App); err != nil {
			return fmt.Errorf("fleet: replay: arrival %d: %w", i, err)
		}
		apps[a.App] = app
	}
	p, err := f.Place(app, runtime.AdmitOptions{
		Name:     rec.Session,
		Tasks:    a.Tasks,
		Seed:     a.Seed,
		Hold:     true,
		Deadline: rec.Deadline,
	})
	if err != nil {
		var perr *PlacementError
		if !errors.As(err, &perr) {
			return err
		}
		rec.Rejected = true
		rec.Reason = perr.Error()
		// No session ever existed, so no SLO budget applies; dropping the
		// deadline keeps rejected records free of attainment fields.
		rec.Deadline = 0
		res.Rejected++
		return nil
	}
	rec.Node = p.Node.ID
	rec.Choice = p.Choice
	res.Placed++
	if p.Choice > 0 {
		res.Spilled++
	}
	return nil
}

// replayDeparture handles one dwell-expiry event: start the held
// session — wherever migration may have moved it since placement — run
// it to completion, and fold its latency in. Rejected arrivals have no
// session and depart as no-ops.
func (f *Fleet) replayDeparture(rec *PlacementRecord) error {
	s := f.lookupActive(rec.Session)
	if s == nil {
		return nil
	}
	s.Start()
	r := s.Wait()
	if r.Err != nil {
		return fmt.Errorf("fleet: replay: session %s: %w", r.Name, r.Err)
	}
	rec.Elapsed = r.Elapsed
	if rec.Deadline > 0 {
		if r.Elapsed <= rec.Deadline {
			rec.SLO = "attained"
		} else {
			rec.SLO = "missed"
		}
	}
	f.observeLatency(r.Elapsed)
	f.departed(rec.Session)
	return nil
}

// lookupActive returns the live session currently registered under a
// placement name, nil when it never placed or already departed.
func (f *Fleet) lookupActive(name string) *runtime.Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e, ok := f.active[name]; ok {
		return e.sess
	}
	return nil
}

// migrationCount reads the fleet's migration counter.
func (f *Fleet) migrationCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.migrations
}

// sample snapshots the placement counters for one sampling event.
func (f *Fleet) sample(at float64) SampleRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return SampleRecord{
		At:         at,
		Arrivals:   f.arrivals,
		Placed:     f.placed,
		Spills:     f.spills,
		Rejected:   f.rejected,
		Migrations: f.migrations,
	}
}

// Latency exposes the fleet's completed-session latency histogram.
func (f *Fleet) Latency() (p50, p99 time.Duration) {
	return f.latency.Quantile(0.50), f.latency.Quantile(0.99)
}
