// Package sessiontrace records causal, parent-linked span trees for
// session lifecycles across the fleet, runtime, and engine layers: one
// trace per sampled session, from fleet arrival through placement
// attempts (including every typed refusal), hold/admit, waves, drift
// re-plans, and migration to completion.
//
// The tracer is fed by direct, synchronous hooks at the recording
// sites rather than by reading back the obs.Stream, whose ring keeps
// only recent events: a causal record with holes is worse than none.
// Every hook is safe on a nil *Tracer, so call sites need no guards.
//
// Determinism: spans carry only logical times (virtual seconds,
// advanced by AdvanceTo from the replay's event loop and by wave
// durations), and head-sampling is a pure function of (seed, session
// name) — the same seed and the same fleet trace produce a
// byte-identical sampled span set on every replay.
package sessiontrace

import (
	"fmt"
	"sync"
)

// Span kinds, in the order they typically appear in a lifecycle.
const (
	KindSession      = "session"   // root: arrival → completion
	KindPlacement    = "placement" // fleet placement phase
	KindAttempt      = "attempt"   // one per-candidate admission refusal
	KindHold         = "hold"      // admitted with launch deferred
	KindAdmit        = "admit"     // admitted and launched immediately
	KindStart        = "start"     // held session launched
	KindWave         = "wave"      // one pipelined wave
	KindReplan       = "replan"    // churn-triggered re-plan took effect
	KindDrift        = "drift-detected"
	KindDriftReplan  = "drift-replan" // drift-triggered re-plan took effect
	KindMigration    = "migration"    // drain-triggered move to another node
	KindReleased     = "released"     // reservation released (migration source)
	KindRejectedSpan = "rejected"     // no node admitted the arrival
)

// Trace verdicts.
const (
	VerdictOK       = "ok"       // finished, no deadline attached
	VerdictAttained = "attained" // finished within its deadline
	VerdictMissed   = "missed"   // finished late
	VerdictFailed   = "failed"   // finished with an error
	VerdictRejected = "rejected" // never admitted anywhere
)

// Span is one parent-linked node of a session's trace tree. IDs are
// per-trace and start at 1; Parent 0 marks the root. Instantaneous
// lifecycle points (admit, replan, drift) carry Start == End.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Detail string  `json:"detail,omitempty"`
}

// TraceDoc is one session's complete causal record: identity, SLO
// verdict, and the span tree in recording order (parents precede
// children).
type TraceDoc struct {
	Session  string  `json:"session"`
	TraceID  string  `json:"trace_id"`
	App      string  `json:"app,omitempty"`
	Verdict  string  `json:"verdict,omitempty"`
	Deadline float64 `json:"deadline,omitempty"`
	Elapsed  float64 `json:"elapsed,omitempty"`
	Spans    []Span  `json:"spans"`
}

// Config parameterizes a Tracer.
type Config struct {
	// SampleRate is the deterministic head-sampling fraction: a session
	// is traced iff hash(seed, name) maps below it. >= 1 traces every
	// session; <= 0 traces none (every hook is then a cheap no-op).
	SampleRate float64
	// Seed feeds the sampling hash and the trace IDs, so a replay's
	// sampled set is reproducible and byte-identical across runs.
	Seed int64
}

// DefaultCapacity bounds retained traces. When exceeded the oldest
// finished trace is evicted first, then the oldest open one.
const DefaultCapacity = 1024

// record is the mutable per-session state behind a TraceDoc while the
// session is live: open-span cursors and the per-trace logical clock.
type record struct {
	doc       *TraceDoc
	clock     float64 // advances monotonically; max of tracer now and wave ends
	placement int     // open placement span id (0 = none)
	wave      int     // open wave span id (0 = none)
	migration int     // open migration span id (0 = none)
	done      bool
}

// Tracer records sampled session lifecycles. The zero value and nil
// are both valid, fully inert tracers.
type Tracer struct {
	rate float64
	seed int64
	cap  int // DefaultCapacity; the package's tests lower it to reach eviction

	mu    sync.Mutex
	now   float64 // logical clock, virtual seconds
	recs  map[string]*record
	order []string // sampled sessions in arrival order (eviction + snapshot order)
}

// New builds a Tracer. A SampleRate <= 0 yields a tracer whose hooks
// all no-op without taking the lock.
func New(cfg Config) *Tracer {
	return &Tracer{rate: cfg.SampleRate, seed: cfg.Seed, cap: DefaultCapacity, recs: make(map[string]*record)}
}

// FNV-1a 64 parameters, inlined so the sampling decision allocates
// nothing (hash/fnv's Write takes a []byte and would box the string).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash folds the seed's 8 little-endian bytes and the session name
// through FNV-1a 64.
func (t *Tracer) hash(session string) uint64 {
	h := uint64(fnvOffset)
	s := uint64(t.seed)
	for i := 0; i < 8; i++ {
		h ^= (s >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= fnvPrime
	}
	return h
}

// sampled reports whether session falls under the head-sampling rate,
// returning the hash for trace-ID derivation. Pure and allocation-free:
// the unsampled hot path is hash + compare, no lock.
func (t *Tracer) sampled(session string) (uint64, bool) {
	if t.rate <= 0 {
		return 0, false
	}
	h := t.hash(session)
	if t.rate >= 1 {
		return h, true
	}
	// Top 53 bits → uniform float64 in [0, 1).
	return h, float64(h>>11)/(1<<53) < t.rate
}

// AdvanceTo moves the logical clock forward to at (never backward).
// The replay loop calls it with each event's time before touching the
// fleet, so spans line up with the replay timeline.
func (t *Tracer) AdvanceTo(at float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if at > t.now {
		t.now = at
	}
	t.mu.Unlock()
}

// lock is the guard of every hook that acts on an open trace: it returns
// nil on a nil tracer or an unsampled session without locking, else it
// takes t.mu and returns the session's open record with the lock held
// (the caller unlocks), or unlocks and returns nil when none is open.
func (t *Tracer) lock(session string) *record {
	if t == nil {
		return nil
	}
	if _, ok := t.sampled(session); !ok {
		return nil
	}
	t.mu.Lock()
	r := t.get(session)
	if r == nil {
		t.mu.Unlock()
	}
	return r
}

// get returns the live record for session, or nil. Callers hold t.mu.
func (t *Tracer) get(session string) *record {
	r := t.recs[session]
	if r == nil || r.done {
		return nil
	}
	return r
}

// tick returns the record's current logical time, folding in the
// tracer clock. Callers hold t.mu.
func (t *Tracer) tick(r *record) float64 {
	if t.now > r.clock {
		r.clock = t.now
	}
	return r.clock
}

// span appends a span and returns its id. Callers hold t.mu.
func (r *record) span(parent int, kind, name string, start, end float64, detail string) int {
	id := len(r.doc.Spans) + 1
	r.doc.Spans = append(r.doc.Spans, Span{
		ID: id, Parent: parent, Kind: kind, Name: name,
		Start: start, End: end, Detail: detail,
	})
	return id
}

// ensure creates (or returns) the record for a sampled session,
// opening its root span at the current logical time. Callers hold t.mu.
func (t *Tracer) ensure(session, app string) *record {
	if r := t.get(session); r != nil {
		return r
	}
	if _, ok := t.recs[session]; ok {
		return nil // finished trace with this name is retained; don't reopen
	}
	h, ok := t.sampled(session)
	if !ok {
		return nil
	}
	t.evictLocked()
	r := &record{doc: &TraceDoc{
		Session: session,
		TraceID: fmt.Sprintf("%016x", h),
		App:     app,
	}}
	r.clock = t.now
	r.span(0, KindSession, app, r.clock, r.clock, "")
	t.recs[session] = r
	t.order = append(t.order, session)
	return r
}

// evictLocked drops the oldest finished trace (or, failing that, the
// oldest open one) once the retained set is at capacity.
func (t *Tracer) evictLocked() {
	if len(t.order) < t.cap {
		return
	}
	victim := -1
	for i, name := range t.order {
		if r := t.recs[name]; r != nil && r.done {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
	}
	delete(t.recs, t.order[victim])
	t.order = append(t.order[:victim], t.order[victim+1:]...)
}

// Arrived opens a trace for a sampled session at fleet arrival and its
// placement phase span. Unsampled sessions return without locking.
func (t *Tracer) Arrived(session, app string) {
	if t == nil {
		return
	}
	if _, ok := t.sampled(session); !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.ensure(session, app)
	if r == nil {
		return
	}
	if r.placement == 0 {
		now := t.tick(r)
		r.placement = r.span(1, KindPlacement, "", now, now, "")
	}
}

// Attempt records one per-candidate admission refusal during
// placement: node is the candidate, refusal the typed admission error.
func (t *Tracer) Attempt(session, node, refusal string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	parent := r.placement
	if parent == 0 {
		parent = 1
	}
	now := t.tick(r)
	r.span(parent, KindAttempt, node, now, now, refusal)
}

// Placed closes the placement phase: the session landed on node.
// choice is the 1-based rank of the admitting candidate (choice > 1 is
// a spillover).
func (t *Tracer) Placed(session, node string, choice int) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	if r.placement != 0 {
		s := &r.doc.Spans[r.placement-1]
		s.End = now
		s.Name = node
		if choice > 1 {
			s.Detail = fmt.Sprintf("spillover: choice %d", choice)
		}
		r.placement = 0
	}
}

// Rejected closes the trace with a rejected verdict: no node admitted
// the arrival. detail is the aggregated placement error.
func (t *Tracer) Rejected(session, detail string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	if r.placement != 0 {
		s := &r.doc.Spans[r.placement-1]
		s.End = now
		r.placement = 0
	}
	r.span(1, KindRejectedSpan, "", now, now, detail)
	r.doc.Spans[0].End = now
	r.doc.Verdict = VerdictRejected
	r.done = true
}

// Admitted records a successful node-runtime admission: kind "hold"
// when the launch is deferred (fleet placements hold by default),
// "admit" when it runs immediately. Opens the trace if the session
// bypassed fleet placement (direct runtime admission under btrun).
func (t *Tracer) Admitted(session, app, schedule string, hold bool) {
	if t == nil {
		return
	}
	if _, ok := t.sampled(session); !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.ensure(session, app)
	if r == nil {
		return
	}
	kind := KindAdmit
	if hold {
		kind = KindHold
	}
	now := t.tick(r)
	r.span(1, kind, "", now, now, schedule)
}

// Started records a held session's launch.
func (t *Tracer) Started(session string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	r.span(1, KindStart, "", now, now, "")
}

// WaveStart opens a wave span: wave is the wave index, tasks the
// number of pipelined tasks, schedule the assignment string.
func (t *Tracer) WaveStart(session string, wave, tasks int, schedule string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	r.wave = r.span(1, KindWave, fmt.Sprintf("wave %d", wave), now, now,
		fmt.Sprintf("%d tasks on %s", tasks, schedule))
}

// WaveEnd closes the open wave span, advancing the trace's logical
// clock by the wave's virtual duration.
func (t *Tracer) WaveEnd(session string, wave int, elapsed float64) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	if r.wave == 0 {
		return
	}
	s := &r.doc.Spans[r.wave-1]
	end := s.Start + elapsed
	if end > r.clock {
		r.clock = end
	}
	s.End = end
	r.wave = 0
}

// instant records a zero-width child of the open wave (or the root when
// no wave is open). Callers hold t.mu.
func (t *Tracer) instant(r *record, kind, name, detail string) {
	parent := r.wave
	if parent == 0 {
		parent = 1
	}
	now := t.tick(r)
	r.span(parent, kind, name, now, now, detail)
}

// Replanned records a churn-triggered re-plan taking effect.
func (t *Tracer) Replanned(session, detail string) {
	if r := t.lock(session); r != nil {
		defer t.mu.Unlock()
		t.instant(r, KindReplan, "", detail)
	}
}

// DriftDetected records the online profiler latching a drift for this
// session's stage on pu (observed/modeled ratio).
func (t *Tracer) DriftDetected(session, stage, pu string, ratio float64) {
	if r := t.lock(session); r != nil {
		defer t.mu.Unlock()
		t.instant(r, KindDrift, stage, fmt.Sprintf("observed %.3gx modeled on %s", ratio, pu))
	}
}

// DriftReplanned records a drift-triggered re-plan taking effect.
func (t *Tracer) DriftReplanned(session, detail string) {
	if r := t.lock(session); r != nil {
		defer t.mu.Unlock()
		t.instant(r, KindDriftReplan, "", detail)
	}
}

// BeginMigration opens a migration span: the drain controller is
// moving this held session off from.
func (t *Tracer) BeginMigration(session, from string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	r.migration = r.span(1, KindMigration, from, now, now, "")
}

// Migrated closes the open migration span: the session now holds a
// reservation on to.
func (t *Tracer) Migrated(session, from, to string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	now := t.tick(r)
	if r.migration != 0 {
		s := &r.doc.Spans[r.migration-1]
		s.End = now
		s.Detail = fmt.Sprintf("from=%s to=%s", from, to)
		r.migration = 0
	} else {
		r.span(1, KindMigration, from, now, now, fmt.Sprintf("from=%s to=%s", from, to))
	}
}

// SessionEnd closes the trace and assigns the verdict. A canceled
// session that ran zero tasks is a released reservation (the migration
// source of a moved session): it records a released marker but leaves
// the trace open, because the same-named session continues elsewhere.
func (t *Tracer) SessionEnd(session string, elapsed, deadline float64, tasks int, canceled bool, errDetail string) {
	r := t.lock(session)
	if r == nil {
		return
	}
	defer t.mu.Unlock()
	if canceled && tasks == 0 {
		t.instant(r, KindReleased, "", "reservation released before launch")
		return
	}
	now := t.tick(r)
	root := &r.doc.Spans[0]
	root.End = now
	r.doc.Elapsed = elapsed
	r.doc.Deadline = deadline
	switch {
	case errDetail != "":
		r.doc.Verdict = VerdictFailed
		root.Detail = errDetail
	case deadline > 0 && elapsed <= deadline:
		r.doc.Verdict = VerdictAttained
	case deadline > 0:
		r.doc.Verdict = VerdictMissed
	default:
		r.doc.Verdict = VerdictOK
	}
	r.done = true
}

// Trace returns a copy of session's trace document, if sampled and
// still retained.
func (t *Tracer) Trace(session string) (TraceDoc, bool) {
	if t == nil {
		return TraceDoc{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs[session]
	if r == nil {
		return TraceDoc{}, false
	}
	return copyDoc(r.doc), true
}

// Snapshot returns copies of every retained trace in arrival order.
func (t *Tracer) Snapshot() []TraceDoc {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceDoc, 0, len(t.order))
	for _, name := range t.order {
		if r := t.recs[name]; r != nil {
			out = append(out, copyDoc(r.doc))
		}
	}
	return out
}

func copyDoc(d *TraceDoc) TraceDoc {
	c := *d
	c.Spans = append([]Span(nil), d.Spans...)
	return c
}
