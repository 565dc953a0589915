package obs

import (
	"io"

	"bettertogether/internal/metrics"
)

// SLOStats is a point-in-time view of per-session deadline attainment:
// how many deadline-carrying sessions finished, how many met their
// deadline, and the end-to-end latency distribution of those sessions.
// Only sessions admitted with a positive deadline are counted — a
// zero-deadline run produces an all-zero snapshot and writes no
// families with nonzero values, keeping default output unchanged.
type SLOStats struct {
	// Sessions counts completed sessions that carried a deadline;
	// Attained the subset that finished (without error) within it;
	// Missed the rest (late or failed).
	Sessions int `json:"sessions"`
	Attained int `json:"attained"`
	Missed   int `json:"missed"`
	// Latency is the end-to-end latency histogram of deadline-carrying
	// sessions (virtual seconds under Sim). Nil omits the summary family.
	Latency *metrics.Histogram `json:"-"`
}

// AttainedFraction is the attained/sessions ratio rendered without NaN
// when no deadline-carrying session has completed.
func (s SLOStats) AttainedFraction() string { return rate(s.Attained, s.Sessions) }

// Merge folds other into s: counters sum, latency histograms merge
// (allocating s.Latency on first use). Fleet-level attainment is the
// merge of every node runtime's snapshot.
func (s *SLOStats) Merge(other SLOStats) {
	s.Sessions += other.Sessions
	s.Attained += other.Attained
	s.Missed += other.Missed
	if other.Latency != nil {
		if s.Latency == nil {
			s.Latency = &metrics.Histogram{}
		}
		s.Latency.Merge(other.Latency)
	}
}

// PromSLO writes the deadline-attainment families as Prometheus text
// exposition. A falling bt_slo_attained_total/bt_slo_sessions_total
// ratio under load is the fleet-level signal that interference, not
// capacity, is eating the deadline budget.
func (s SLOStats) PromSLO(w io.Writer) error {
	pw := &promWriter{w: w}
	pw.family("bt_slo_sessions_total", "counter",
		"Completed sessions that carried an SLO deadline.")
	pw.sample("bt_slo_sessions_total", nil, float64(s.Sessions))
	pw.family("bt_slo_attained_total", "counter",
		"Deadline-carrying sessions that finished within their deadline.")
	pw.sample("bt_slo_attained_total", nil, float64(s.Attained))
	pw.family("bt_slo_missed_total", "counter",
		"Deadline-carrying sessions that finished late or failed.")
	pw.sample("bt_slo_missed_total", nil, float64(s.Missed))
	pw.family("bt_slo_attainment_ratio", "gauge",
		"Fraction of deadline-carrying sessions that met their deadline.")
	frac := 0.0
	if s.Sessions > 0 {
		frac = float64(s.Attained) / float64(s.Sessions)
	}
	pw.sample("bt_slo_attainment_ratio", nil, frac)
	if s.Latency != nil {
		pw.family("bt_slo_latency_seconds", "summary",
			"End-to-end latency of deadline-carrying sessions (virtual seconds under Sim).")
		pw.summary("bt_slo_latency_seconds", nil, s.Latency)
	}
	return pw.err
}
