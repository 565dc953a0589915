package obs

import (
	"encoding/json"
	"io"

	"bettertogether/internal/trace"
)

// ChromeTraceEvent is one entry of a Chrome trace_event document — the
// subset of the trace-event format the exporter emits: complete ("X")
// duration events for spans and metadata ("M") events naming processes
// and threads. See the Trace Event Format spec; Perfetto and
// chrome://tracing both load it.
type ChromeTraceEvent struct {
	// Name is the slice label (the stage name) or the metadata kind.
	Name string `json:"name"`
	// Cat is the event category ("stage" for spans).
	Cat string `json:"cat,omitempty"`
	// Ph is the event phase: "X" complete, "M" metadata.
	Ph string `json:"ph"`
	// Ts is the start timestamp in microseconds; Dur the duration in
	// microseconds (complete events only).
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	// Pid and Tid place the event on a track: one process per document,
	// one thread per timeline row (chunk).
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// Args carries span details (task, stage index, PU class) or the
	// metadata payload.
	Args map[string]any `json:"args,omitempty"`
	// ID links flow events ("s" start, "t" step, "f" finish) into one
	// causality arrow chain; BP is the flow binding point ("e" binds the
	// arrow to the enclosing slice rather than the next one). Both are
	// empty for complete and metadata events.
	ID string `json:"id,omitempty"`
	BP string `json:"bp,omitempty"`
}

// ChromeTraceDoc is the JSON object format of a trace_event document.
type ChromeTraceDoc struct {
	TraceEvents     []ChromeTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string             `json:"displayTimeUnit"`
}

// chromePid is the single process id the exporter places all tracks on.
const chromePid = 1

// ChromeTrace writes tl as Chrome trace_event JSON: one complete event
// per span (microsecond timestamps on the timeline's own clock, one
// thread track per timeline row) plus thread_name metadata from the
// timeline's row labels, so merged multi-session timelines keep their
// session-qualified track names. A nil or empty timeline writes a valid
// document with no span events.
func ChromeTrace(w io.Writer, tl *trace.Timeline) error {
	doc := ChromeTraceDoc{TraceEvents: []ChromeTraceEvent{}, DisplayTimeUnit: "ms"}
	if tl != nil {
		doc.TraceEvents = append(doc.TraceEvents, ChromeTraceEvent{
			Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
			Args: map[string]any{"name": "bettertogether"},
		})
		for r, name := range tl.RowLabels() {
			doc.TraceEvents = append(doc.TraceEvents, ChromeTraceEvent{
				Name: "thread_name", Ph: "M", Pid: chromePid, Tid: r,
				Args: map[string]any{"name": name},
			})
		}
		for _, s := range tl.Spans {
			doc.TraceEvents = append(doc.TraceEvents, ChromeTraceEvent{
				Name: s.Stage, Cat: "stage", Ph: "X",
				Ts: s.Start * 1e6, Dur: s.Duration() * 1e6,
				Pid: chromePid, Tid: s.Chunk,
				Args: map[string]any{
					"task":       s.Task,
					"stageIndex": s.StageIndex,
					"pu":         string(s.PU),
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
