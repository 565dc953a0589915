package sessiontrace

import "bettertogether/internal/obs"

// flowEpsilonUs is the width, in microseconds, given to instantaneous
// lifecycle spans in the Chrome export: Perfetto cannot anchor a flow
// arrow on a zero-width slice, so instants render as 1µs slivers. The
// JSON span dump keeps the true zero widths.
const flowEpsilonUs = 1.0

// ChromeFlow renders one trace as a Chrome trace_event document whose
// spans are "X" slices connected by flow events ("s" → "t" → "f"), so
// Perfetto draws causality arrows from arrival through placement,
// admission, waves, and any re-plan or migration to completion.
func ChromeFlow(doc TraceDoc) obs.ChromeTraceDoc {
	out := obs.ChromeTraceDoc{DisplayTimeUnit: "ms", TraceEvents: []obs.ChromeTraceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "bettertogether sessions"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Args: map[string]any{"name": doc.Session}},
	}}
	for _, s := range doc.Spans {
		name := s.Kind
		if s.Name != "" {
			name = s.Kind + " " + s.Name
		}
		durUs := (s.End - s.Start) * 1e6
		if durUs <= 0 {
			durUs = flowEpsilonUs
		}
		args := map[string]any{"span": s.ID, "trace_id": doc.TraceID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		out.TraceEvents = append(out.TraceEvents, obs.ChromeTraceEvent{
			Name: name, Cat: "session", Ph: "X",
			Ts: s.Start * 1e6, Dur: durUs,
			Pid: 1, Args: args,
		})
	}
	// The flow chain: one arrow sequence per trace, bound to each span's
	// start inside its slice ("e" binds the finish to the enclosing
	// slice). A single span gets no arrows — there is nothing to link.
	if len(doc.Spans) < 2 {
		return out
	}
	for i, s := range doc.Spans {
		ev := obs.ChromeTraceEvent{
			Name: "lifecycle", Cat: "flow", Ts: s.Start * 1e6,
			Pid: 1, ID: doc.TraceID,
		}
		switch i {
		case 0:
			ev.Ph = "s"
		case len(doc.Spans) - 1:
			ev.Ph = "f"
			ev.BP = "e"
		default:
			ev.Ph = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	return out
}
