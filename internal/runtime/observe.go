package runtime

import (
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/trace"
)

// Runtime implements obs.Inspector, so cmd/btrun can mount the
// introspection server directly over a live runtime: the session table,
// per-session metrics exposition, per-session Chrome traces, and the
// admission-headroom gauges all read the same state the admission path
// maintains, under the same lock discipline. The merged no-session
// /trace is (*Runtime).Timeline, wired as obs.ServerConfig.Timeline.
var _ obs.Inspector = (*Runtime)(nil)

// SessionInfos implements obs.Inspector: every session ever admitted in
// admission order, with live aggregates and residency.
func (rt *Runtime) SessionInfos() []obs.SessionInfo {
	rt.mu.Lock()
	sessions := append([]*Session(nil), rt.history...)
	resident := make(map[int]bool, len(rt.resident))
	for id := range rt.resident {
		resident[id] = true
	}
	rt.mu.Unlock()

	infos := make([]obs.SessionInfo, len(sessions))
	for i, s := range sessions {
		res := s.Snapshot()
		info := obs.SessionInfo{
			Name:       res.Name,
			App:        res.App,
			Schedule:   res.Schedule.String(),
			Tasks:      res.Tasks,
			Replans:    res.Replans,
			PerTaskSec: res.PerTask,
			ElapsedSec: res.Elapsed,
			EnergyJ:    res.EnergyJ,
			Resident:   resident[s.id],
		}
		if res.Err != nil {
			info.Err = res.Err.Error()
		}
		infos[i] = info
	}
	return infos
}

// findSession resolves a session by runtime name; with duplicate names
// the latest admission wins (matching the "latest placement" convention
// of metrics merging).
func (rt *Runtime) findSession(name string) *Session {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := len(rt.history) - 1; i >= 0; i-- {
		if rt.history[i].opts.Name == name {
			return rt.history[i]
		}
	}
	return nil
}

// SessionMetrics implements obs.Inspector: the named session's
// aggregated collector, nil when unknown or not collecting.
func (rt *Runtime) SessionMetrics(name string) *metrics.Pipeline {
	s := rt.findSession(name)
	if s == nil {
		return nil
	}
	return s.Metrics()
}

// SessionTimeline implements obs.Inspector: a copy of the named
// session's accumulated trace, nil when unknown or not collecting.
func (rt *Runtime) SessionTimeline(name string) *trace.Timeline {
	s := rt.findSession(name)
	if s == nil {
		return nil
	}
	return s.Timeline()
}

// AdmissionHeadroom implements obs.Inspector: the projected steady-state
// demand stacked across resident sessions against the headroom-scaled
// capacities — exactly the accounting Admit checks applicants against.
func (rt *Runtime) AdmissionHeadroom() obs.Headroom {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var total demand
	for _, id := range rt.residentIDs() {
		total = total.plus(planDemand(rt.resident[id].currentPlan()))
	}
	return obs.Headroom{
		BWDemandGBs:   total.bwGBs,
		BWCapacityGBs: rt.cfg.BWHeadroom * rt.dev.DRAMBWGBs,
		CoresDemand:   total.cores,
		CoresCapacity: rt.cfg.CoreHeadroom * rt.deviceCores(),
		ResidentCount: len(rt.resident),
		AdmittedTotal: len(rt.history),
		RejectedTotal: rt.rejected,
	}
}
