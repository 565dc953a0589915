// Package obs is the exportable observability layer over the framework's
// in-process instrumentation: the metrics collectors (internal/metrics)
// and execution timelines (internal/trace) stay the recording surfaces,
// and this package makes what they capture visible outside the process —
// as a bounded typed event stream, as Prometheus text exposition, as
// Chrome trace_event JSON loadable in Perfetto/chrome://tracing, as a
// JSON metrics snapshot, and through an opt-in introspection HTTP server
// (Serve) that cmd/btrun mounts with -listen.
//
// The design constraint throughout is non-perturbation: everything here
// is pull-only or opt-in. Exporters read quiescent (or atomically
// readable) collectors; event emission is a single short critical
// section with no allocation, gated on an Options/Config field that
// defaults to off; the Sim engine's virtual timeline is bit-identical
// with and without a stream attached (pinned by test).
package obs

import (
	"sync"
	"time"
)

// Kind classifies an Event.
type Kind uint8

// Event kinds. RunStart/RunEnd bracket one engine execution; StageDone,
// QueueStall and PanicRecovered are engine-level; Admit, Reject, Replan,
// WaveStart, WaveEnd and SessionEnd are runtime-level.
const (
	// KindRunStart marks an engine run entering its executor.
	KindRunStart Kind = iota
	// KindRunEnd marks an engine run finalized (Detail carries the error,
	// if any).
	KindRunEnd
	// KindStageDone is one completed stage execution (Dur is its service
	// time — wall for the Real engine, virtual for Sim).
	KindStageDone
	// KindQueueStall is producer-side backpressure on an edge (Real
	// engine only; Dur is the blocked time, Chunk the edge index).
	KindQueueStall
	// KindPanicRecovered is a kernel panic the Real engine contained
	// (Detail carries the panic value).
	KindPanicRecovered
	// KindAdmit is a runtime admission (Detail carries the schedule).
	KindAdmit
	// KindReject is a refused admission (Detail carries the reason).
	KindReject
	// KindReplan is a resident session picking up a new schedule after
	// admission churn (Detail carries the new schedule).
	KindReplan
	// KindWaveStart and KindWaveEnd bracket one session execution wave
	// (Wave is the wave index, Task the wave's task count).
	KindWaveStart
	// KindWaveEnd closes a wave; Dur is the wave's elapsed run time.
	KindWaveEnd
	// KindSessionEnd marks a session leaving residency (Detail carries
	// its terminal error, if any).
	KindSessionEnd
	// KindPlace is a fleet-level placement decision: a session landed on
	// a node (Detail carries "node=<id> choice=<rank>"; choice > 0 means
	// spillover past the first-ranked node).
	KindPlace
	// KindDriftReplan is a re-plan triggered by the online profiler:
	// observed service times diverged from the model that produced the
	// session's schedule (Detail carries the diverging estimator cell and
	// the divergence; the Replan events for the new schedules follow).
	KindDriftReplan
	// KindDrain is a fleet node lifecycle edge: a node was cordoned out of
	// placement (Detail carries "node=<id> migrated=<n>") or restored
	// (Detail carries "node=<id> uncordoned").
	KindDrain
	// KindMigrate is one held session moved off a draining node: the
	// reservation was re-placed on another node and the original released
	// (Detail carries "from=<id> to=<id>").
	KindMigrate

	numKinds
)

// kindNames are the stable wire names used in JSON and /events output.
var kindNames = [numKinds]string{
	"run-start", "run-end", "stage-done", "queue-stall", "panic-recovered",
	"admit", "reject", "replan", "wave-start", "wave-end", "session-end",
	"place", "drift-replan", "drain", "migrate",
}

// String returns the kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation in the stream. Fields beyond Kind are
// populated as applicable; the zero value of an inapplicable field means
// "not set".
type Event struct {
	// Seq is the stream-assigned sequence number (1-based, gap-free per
	// stream); Wall is the emission wall-clock time. Both are assigned by
	// Stream.Emit.
	Seq  uint64
	Wall time.Time
	// Kind classifies the event.
	Kind Kind
	// Session names the emitting runtime session ("" for single runs).
	Session string
	// Stage is the stage name (StageDone, PanicRecovered).
	Stage string
	// PU is the executing PU class of a StageDone — the estimator-facing
	// tap that lets a sink attribute a service time to a (stage, PU)
	// pair without re-deriving the schedule.
	PU string
	// Chunk is the chunk index (StageDone, PanicRecovered) or edge index
	// (QueueStall); -1 when not applicable.
	Chunk int
	// Task is the stream task sequence number, or a wave's task count for
	// WaveStart/WaveEnd; -1 when not applicable.
	Task int
	// Wave is the session wave index (WaveStart, WaveEnd); -1 otherwise.
	Wave int
	// Dur is the event's duration payload: service time for StageDone,
	// blocked time for QueueStall, wave run time for WaveEnd.
	Dur time.Duration
	// Detail is free-form context: a schedule, an error, a panic value.
	Detail string
}

// NewEvent returns an Event of the given kind with the index fields
// (Chunk, Task, Wave) marked unset (-1), so emitters only fill what
// applies.
func NewEvent(kind Kind) Event { return Event{Kind: kind, Chunk: -1, Task: -1, Wave: -1} }

// Sink receives emitted events. *Stream implements it; WithSession wraps
// one to namespace engine-level events with a session identity. A nil
// Sink (the Options/Config default) disables emission entirely.
type Sink interface {
	Emit(Event)
}

// sessionSink tags otherwise-unattributed events with a session name.
type sessionSink struct {
	next    Sink
	session string
}

// Emit implements Sink.
func (s sessionSink) Emit(e Event) {
	if e.Session == "" {
		e.Session = s.session
	}
	s.next.Emit(e)
}

// WithSession returns a Sink that stamps the session name onto events
// that do not already carry one — how the runtime routes each wave's
// engine-level events to the shared stream under the session's identity.
// A nil sink stays nil, so disabled observability costs one nil check.
func WithSession(s Sink, session string) Sink {
	if s == nil {
		return nil
	}
	return sessionSink{next: s, session: session}
}

// DefaultStreamCapacity is the ring size NewStream uses for capacity <= 0.
const DefaultStreamCapacity = 1024

// Stream is a bounded in-memory event stream: a fixed-capacity ring that
// always holds the most recent events. Emit is a single short
// mutex-protected critical section with no allocation. Consumers that
// need every event are Sinks of their own, fed synchronously by the
// emitter; the ring serves history. All methods are safe for concurrent
// use and are no-ops on a nil *Stream, so call sites can hold an
// optional stream without guarding.
type Stream struct {
	mu    sync.Mutex
	ring  []Event
	total uint64 // events ever emitted == last assigned Seq
}

// NewStream builds a stream holding the most recent capacity events
// (DefaultStreamCapacity when <= 0).
func NewStream(capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	return &Stream{ring: make([]Event, capacity)}
}

// Emit implements Sink: it assigns the event's Seq and Wall and stores it
// in the ring, overwriting the oldest.
func (s *Stream) Emit(e Event) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	s.total++
	e.Seq = s.total
	e.Wall = now
	s.ring[int((s.total-1)%uint64(len(s.ring)))] = e
	s.mu.Unlock()
}

// Total returns how many events were ever emitted.
func (s *Stream) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Capacity returns the ring size.
func (s *Stream) Capacity() int {
	if s == nil {
		return 0
	}
	return len(s.ring)
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// or n beyond the retained window returns everything still in the ring.
func (s *Stream) Recent(n int) []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	have := s.total
	if have > uint64(len(s.ring)) {
		have = uint64(len(s.ring))
	}
	if n > 0 && uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := s.total - have; i < s.total; i++ {
		out = append(out, s.ring[int(i%uint64(len(s.ring)))])
	}
	return out
}

var _ Sink = (*Stream)(nil)
