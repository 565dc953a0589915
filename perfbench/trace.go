package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bettertogether/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that caused this one (0 for an op's
// root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced phase. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// setOp tags spans begun from now on with op id.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: at, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// add records an already-measured span.
func (t *tracer) add(name string, parent int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// write stores every span and the per-name times lt as JSON at path,
// creating its directory.
func (t *tracer) write(path string, lt map[string]layerTime) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Layers map[string]layerTime `json:"layers"`
	}{t.spans, lt})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime sums, per span name, total duration and self time (duration
// minus the part of the span's interval its children cover), in seconds.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func layerTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(s, children[s.ID])) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to
// parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// Segment names for the host time between stamped events inside a fleet
// replay. Each stamped event closes the segment since the previous one;
// the segment is named after the event that closed it.
const (
	segAdmitAttempt = "runtime.admit_attempt" // closed by a node's admit or refusal
	segReplan       = "runtime.replan"        // closed by a resident's changed schedule
	segPlace        = "fleet.place"           // closed by a placement
	segFleetReject  = "fleet.reject"          // closed by a fleet-wide refusal
	segWave         = "pipeline.sim_wave"     // a session wave, start to end
	segWaveGap      = "runtime.wave_gap"      // closed by a wave start
	segSessionEnd   = "runtime.session_end"   // closed by a session leaving
)

// eventSink is the obs.Sink of the traced fleet phase: it stamps the
// host wall clock on admit, reject, place, replan, wave and session-end
// events and turns the intervals between them into child spans of the
// current replay span. Other events are only counted.
type eventSink struct {
	tr *tracer

	mu        sync.Mutex
	parent    int
	last      int64
	waveStart int64
	events    int
	attempts  int
	waveTasks int
}

// open starts segmenting under a new parent span.
func (s *eventSink) open(parent int) {
	s.mu.Lock()
	s.parent, s.last = parent, s.tr.now()
	s.mu.Unlock()
}

// Emit implements obs.Sink.
func (s *eventSink) Emit(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events++
	var name string
	switch e.Kind {
	case obs.KindAdmit:
		name = segAdmitAttempt
		s.attempts++
	case obs.KindReject:
		if strings.HasPrefix(e.Detail, "fleet:") {
			name = segFleetReject
		} else {
			name = segAdmitAttempt
			s.attempts++
		}
	case obs.KindReplan:
		name = segReplan
	case obs.KindPlace:
		name = segPlace
	case obs.KindWaveStart:
		name = segWaveGap
	case obs.KindWaveEnd:
		now := s.tr.now()
		s.tr.add(segWave, s.parent, s.waveStart, now)
		s.last = now
		if e.Task > 0 {
			s.waveTasks += e.Task
		}
		return
	case obs.KindSessionEnd:
		name = segSessionEnd
	default:
		return
	}
	now := s.tr.now()
	s.tr.add(name, s.parent, s.last, now)
	s.last = now
	if e.Kind == obs.KindWaveStart {
		s.waveStart = now
	}
}
