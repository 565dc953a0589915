// Package des is a minimal deterministic discrete-event simulation
// engine: a virtual clock and an event heap ordered by (time, priority,
// schedule order). The fleet replay runs on it, with arrivals,
// departures and control-plane sweeps as events, so experiments stay
// exactly reproducible. The pipeline simulator does not: a pipeline has
// at most one pending completion per chunk, so it keeps one deadline per
// chunk instead of an event queue (internal/pipeline).
package des

import "fmt"

// event is one scheduled callback, stored by value in the heap. prio
// orders events sharing a timestamp (lower runs first); seq breaks
// remaining ties in schedule order, which makes runs deterministic
// regardless of map iteration or goroutine scheduling.
type event struct {
	time float64
	prio int
	seq  int64
	fn   func()
}

// before reports whether a runs before b.
func (a *event) before(b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// Engine is a single-threaded event loop over virtual time. It is not
// safe for concurrent use; simulated concurrency is expressed by
// scheduling events, not goroutines. Beyond the callbacks themselves,
// scheduling and stepping allocate nothing once the event heap has grown
// to the run's peak size.
type Engine struct {
	now    float64
	seq    int64
	events []event // binary min-heap under event.before
}

// New returns an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after the given virtual delay. A negative delay is a
// programming error and panics; a zero delay runs after already-pending
// events at the current time.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t, which must not be in the past.
// Events scheduled through At and Schedule run at priority 0.
func (e *Engine) At(t float64, fn func()) { e.AtPrio(t, 0, fn) }

// AtPrio runs fn at absolute virtual time t with an explicit priority:
// among events sharing a timestamp, lower priorities run first, and
// schedule order (seq) breaks remaining ties. Priorities let a caller
// express same-instant ordering rules — e.g. a fleet replay processing
// departures before control-plane sweeps before arrivals — without
// epsilon time offsets that would leak into reported timestamps.
func (e *Engine) AtPrio(t float64, prio int, fn func()) {
	e.push(event{time: t, prio: prio, fn: fn})
}

// push stamps ev with the next sequence number and sifts it up the heap.
func (e *Engine) push(ev event) {
	if ev.time < e.now {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", ev.time, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
	h := e.events
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(&h[j]) {
			j = j2
		}
		if !h[j].before(&h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	ev := h[n]
	h[n] = event{} // drop the callback references
	e.events = h[:n]
	return ev
}

// Step executes the single earliest event and reports whether one
// existed.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.time
	ev.fn()
	return true
}

// Run executes events until none remain and returns the final time.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].time <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
