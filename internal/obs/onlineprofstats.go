package obs

import "io"

// OnlineProfStats is a point-in-time view of an online profiler's
// counters, decoupled from the estimator implementation so the server
// can export any feedback layer. internal/onlineprof's Stats converts
// 1:1; runtime.Runtime contributes the replan counter.
type OnlineProfStats struct {
	// Observations counts stage-done service times folded into EWMAs;
	// Cells is the live (stage, PU, env) estimator population and
	// LatchedCells how many of them have flagged drift.
	Observations uint64 `json:"observations"`
	Cells        int    `json:"cells"`
	LatchedCells int    `json:"latchedCells"`
	// DriftsTriggered counts drift detections.
	DriftsTriggered uint64 `json:"driftsTriggered"`
	// DriftReplans counts runtime re-plans the detections actually
	// caused (a detection during shutdown may not replan).
	DriftReplans int `json:"driftReplans"`
}

// PromOnlineProf writes the online-profiler counter families as
// Prometheus text exposition — the feedback-loop health signal: a
// rising bt_onlineprof_drifts_total means the offline profile no
// longer matches what the runtime observes.
func (s OnlineProfStats) PromOnlineProf(w io.Writer) error {
	pw := &promWriter{w: w}
	pw.family("bt_onlineprof_observations_total", "counter",
		"Stage service times folded into online EWMA estimates.")
	pw.sample("bt_onlineprof_observations_total", nil, float64(s.Observations))
	pw.family("bt_onlineprof_cells", "gauge",
		"Live (stage, PU, env) estimator cells.")
	pw.sample("bt_onlineprof_cells", nil, float64(s.Cells))
	pw.family("bt_onlineprof_latched_cells", "gauge",
		"Estimator cells currently flagging model drift.")
	pw.sample("bt_onlineprof_latched_cells", nil, float64(s.LatchedCells))
	pw.family("bt_onlineprof_drifts_total", "counter",
		"Drift detections: observed service times diverged from the model.")
	pw.sample("bt_onlineprof_drifts_total", nil, float64(s.DriftsTriggered))
	pw.family("bt_onlineprof_replans_total", "counter",
		"Runtime re-plans triggered by drift detections.")
	pw.sample("bt_onlineprof_replans_total", nil, float64(s.DriftReplans))
	return pw.err
}
