package trace

import "fmt"

// SessionTrace is one session's contribution to a merged timeline.
type SessionTrace struct {
	// Name qualifies the session's rows and stages in the merged output.
	Name string
	// Timeline holds the session's spans; they keep their times.
	Timeline *Timeline
}

// MergeSessions combines per-session timelines into one renderable
// Timeline: chunk rows are re-based so each session occupies its own
// contiguous row group (in argument order), row labels become
// "name/chunk i (pu)", stage indexes are re-based per session so glyphs
// and the legend stay unambiguous, and stage names are prefixed with the
// session name. Spans within each row group keep their original order,
// so the merge is deterministic for deterministic inputs.
func MergeSessions(parts ...SessionTrace) *Timeline {
	out := &Timeline{}
	rowBase, stageBase := 0, 0
	for pi, part := range parts {
		if part.Timeline == nil {
			continue
		}
		name := part.Name
		if name == "" {
			name = fmt.Sprintf("session %d", pi)
		}
		rows, stages := 0, 0
		for _, s := range part.Timeline.Spans {
			if s.Chunk+1 > rows {
				rows = s.Chunk + 1
			}
			if s.StageIndex+1 > stages {
				stages = s.StageIndex + 1
			}
		}
		labels := make([]string, rows)
		for _, s := range part.Timeline.Spans {
			ns := s
			ns.Chunk += rowBase
			ns.StageIndex += stageBase
			ns.Stage = name + ":" + s.Stage
			if labels[s.Chunk] == "" {
				labels[s.Chunk] = fmt.Sprintf("%s/chunk %d (%s)", name, s.Chunk, s.PU)
			}
			out.Spans = append(out.Spans, ns)
		}
		out.Labels = append(out.Labels, labels...)
		rowBase += rows
		stageBase += stages
	}
	return out
}
