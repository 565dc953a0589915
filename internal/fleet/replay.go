package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"bettertogether/internal/core"
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
	// Drains and Migrated report control-plane activity: one
	// DrainRecord per drain event and the total sessions migrated. Both
	// empty — and absent from the JSON — unless ReplayOptions scheduled
	// a drain, so a plain replay's output is unchanged by their
	// existence.
	Drains   []DrainRecord `json:"drains,omitempty"`
	Migrated int           `json:"migrated,omitempty"`
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
	// SLODeadline, when positive, applies this SLO budget (virtual
	// seconds) to every arrival that does not carry its own
	// Arrival.Deadline. Attainment is computed at each departure and
	// summarized into ReplayResult.SLO.
	SLODeadline float64
}

// Replay event priorities: events sharing a logical timestamp run
// departures first (capacity freed "now" is visible "now"), then
// control-plane events (a drain at t sees t's departures and shapes
// t's arrivals), then arrivals. Within a priority, trace order breaks
// ties.
const (
	prioDepart = iota
	prioControl
	prioArrival
)

// replayEvent is one entry on a replay's timeline: fn runs at logical
// time at, and prio orders it among events sharing that time.
type replayEvent struct {
	at   float64
	prio int
	fn   func() error
}

// ReplayWith replays a trace on one timeline: every temporal behavior —
// arrivals, dwell-expiry departures, a drain — is an event in a single
// list sorted by (time, priority, trace order). No event creates
// another, so the whole list is known before the first one runs.
//
//   - An arrival is placed with runtime.AdmitOptions.Hold — planned,
//     admitted, and reserving headroom, but not executing. The
//     reservation immediately shapes every co-resident's interference
//     environment, exactly like a running session would.
//   - A departure starts the (possibly migrated) held session and waits
//     for it to run to completion before the next event runs.
//   - A drain moves reservations between nodes; a migrated session
//     departs from wherever it lives when its dwell expires.
//
// Because the Sim engine models co-location through the interference
// environment rather than actual concurrency, serializing execution
// this way changes no modeled latency — and makes the whole replay
// deterministic: one trace, one seed, one byte-identical result, every
// run.
func (f *Fleet) ReplayWith(t Trace, opts ReplayOptions) (ReplayResult, error) {
	if opts.DrainNode != "" && !finiteTime(opts.DrainAt) {
		return ReplayResult{}, fmt.Errorf("fleet: replay: drain time %v is negative or not finite", opts.DrainAt)
	}
	if !finiteTime(opts.SLODeadline) {
		return ReplayResult{}, fmt.Errorf("fleet: replay: SLO deadline %v is negative or not finite", opts.SLODeadline)
	}
	if err := checkTimes(t.Arrivals); err != nil {
		return ReplayResult{}, fmt.Errorf("fleet: replay: %w", err)
	}
	// Session names key the fleet's active sessions: a repeated name
	// would replace an earlier held session that then never runs.
	names, err := sessionNames(t.Arrivals)
	if err != nil {
		return ReplayResult{}, fmt.Errorf("fleet: replay: %w", err)
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

	// Append the trace in order: the stable sort below keeps trace order
	// within a timestamp and priority, reproducing the lockstep loop's
	// order exactly — including the zero-dwell edge where an arrival's
	// own departure runs first and finds no session.
	events := make([]replayEvent, 0, 2*len(t.Arrivals)+1)
	sloEnabled := opts.SLODeadline > 0
	for i, a := range t.Arrivals {
		if a.Deadline > 0 {
			sloEnabled = true
		}
		deadline := a.Deadline
		if deadline == 0 {
			deadline = opts.SLODeadline
		}
		events = append(events,
			replayEvent{a.At, prioArrival, func() error {
				return f.replayArrival(&res, apps, i, a, names[i], deadline)
			}},
			replayEvent{a.At + a.Dwell, prioDepart, func() error {
				return f.replayDeparture(&res.Records[i])
			}})
	}

	if opts.DrainNode != "" {
		at := opts.DrainAt
		events = append(events, replayEvent{at, prioControl, func() error {
			moved, err := f.Drain(opts.DrainNode)
			if err != nil {
				return fmt.Errorf("fleet: replay: %w", err)
			}
			res.Drains = append(res.Drains, DrainRecord{At: at, Node: opts.DrainNode, Migrated: moved})
			return nil
		}})
	}

	sortEvents(events)
	for _, e := range events {
		f.cfg.Trace.AdvanceTo(e.at)
		if err = e.fn(); err != nil {
			break
		}
	}
	res.Migrated = f.migrationCount() - startMigrations
	if err != nil {
		return res, err
	}
	res.P50 = f.latency.Quantile(0.50).Seconds()
	res.P99 = f.latency.Quantile(0.99).Seconds()
	if sloEnabled {
		res.SLO = summarizeSLO(res.Records)
	}
	return res, nil
}

// sortEvents orders a replay's timeline by (time, priority); the sort
// is stable, so events sharing both keep the order they were appended.
func sortEvents(events []replayEvent) {
	slices.SortStableFunc(events, func(x, y replayEvent) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		return cmp.Compare(x.prio, y.prio)
	})
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
// (through the replay's apps memo), place it held under its session
// name (carrying its resolved SLO deadline), and record the outcome.
func (f *Fleet) replayArrival(res *ReplayResult, apps map[string]*core.Application, i int, a Arrival, name string, deadline float64) error {
	rec := &res.Records[i]
	rec.Seq = i
	rec.At = a.At
	rec.App = a.App
	rec.Session = name
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
