package obs

import (
	"io"
	"strconv"

	"bettertogether/internal/metrics"
)

// FleetNodeStats is one registry node's placement view: identity,
// placement counters, and the node runtime's live admission headroom.
type FleetNodeStats struct {
	// ID is the fleet-unique node identity ("pixel7a/0"); Device the
	// catalog device class it models.
	ID     string `json:"id"`
	Device string `json:"device"`
	// Placed counts sessions the placement service landed here; Rejected
	// counts admission attempts this node refused (spillover probes
	// included).
	Placed   int `json:"placed"`
	Rejected int `json:"rejected"`
	// Drained marks a cordoned node: excluded from placement for good,
	// though residents that could not migrate keep running.
	Drained bool `json:"drained,omitempty"`
	// Headroom is the node runtime's projected demand vs capacity.
	Headroom Headroom `json:"headroom"`
}

// FleetStats is a point-in-time view of a fleet's placement counters,
// decoupled from the fleet implementation so internal/fleet can build
// it without obs importing the fleet.
type FleetStats struct {
	// Nodes is the registry size.
	Nodes int `json:"nodes"`
	// Arrivals counts placement requests; Placed the sessions that landed
	// on some node; Spills the subset that landed past their first-ranked
	// node; Rejected the arrivals no node could admit.
	Arrivals int `json:"arrivals"`
	Placed   int `json:"placed"`
	Spills   int `json:"spills"`
	Rejected int `json:"rejected"`
	// Migrations counts held sessions moved off draining nodes
	// (place-elsewhere-then-release); Drained counts currently cordoned
	// nodes.
	Migrations int `json:"migrations,omitempty"`
	Drained    int `json:"drained,omitempty"`
	// Latency is the completed-session latency histogram (virtual seconds
	// under the Sim engine). Nil omits the summary family.
	Latency *metrics.Histogram `json:"-"`
	// PerNode holds one entry per registry node, in registry order.
	PerNode []FleetNodeStats `json:"per_node"`
}

// PromFleet writes the fleet-level counter families as Prometheus text
// exposition: placement totals, per-node placement and headroom gauges,
// and the completed-session latency summary. Together with the runtime's
// bt_admission_* families these make fleet routing health scrapeable —
// a rising bt_fleet_rejections_total with headroom left on some node
// means the placement ranking, not capacity, is the bottleneck.
func (s FleetStats) PromFleet(w io.Writer) error {
	pw := &promWriter{w: w}
	pw.family("bt_fleet_nodes", "gauge", "Registry size of the device fleet.")
	pw.sample("bt_fleet_nodes", nil, float64(s.Nodes))
	pw.family("bt_fleet_arrivals_total", "counter", "Placement requests received by the fleet.")
	pw.sample("bt_fleet_arrivals_total", nil, float64(s.Arrivals))
	pw.family("bt_fleet_placed_total", "counter", "Sessions landed on some fleet node.")
	pw.sample("bt_fleet_placed_total", nil, float64(s.Placed))
	pw.family("bt_fleet_spillovers_total", "counter",
		"Sessions landed past their first-ranked node after an admission refusal.")
	pw.sample("bt_fleet_spillovers_total", nil, float64(s.Spills))
	pw.family("bt_fleet_rejections_total", "counter", "Arrivals no fleet node could admit.")
	pw.sample("bt_fleet_rejections_total", nil, float64(s.Rejected))
	pw.family("bt_fleet_migrations_total", "counter",
		"Held sessions moved off draining nodes (place-elsewhere-then-release).")
	pw.sample("bt_fleet_migrations_total", nil, float64(s.Migrations))
	pw.family("bt_fleet_drained", "gauge", "Fleet nodes currently cordoned out of placement.")
	pw.sample("bt_fleet_drained", nil, float64(s.Drained))

	if len(s.PerNode) > 0 {
		pw.family("bt_fleet_node_placed_total", "counter", "Sessions placed per fleet node.")
		for _, n := range s.PerNode {
			pw.sample("bt_fleet_node_placed_total", nodeLabels(n), float64(n.Placed))
		}
		pw.family("bt_fleet_node_rejections_total", "counter",
			"Admission refusals per fleet node (spillover probes included).")
		for _, n := range s.PerNode {
			pw.sample("bt_fleet_node_rejections_total", nodeLabels(n), float64(n.Rejected))
		}
		pw.family("bt_fleet_node_drained", "gauge", "Whether the node is cordoned out of placement (1 = drained).")
		for _, n := range s.PerNode {
			v := 0.0
			if n.Drained {
				v = 1.0
			}
			pw.sample("bt_fleet_node_drained", nodeLabels(n), v)
		}
		pw.family("bt_fleet_node_resident", "gauge", "Resident sessions per fleet node.")
		for _, n := range s.PerNode {
			pw.sample("bt_fleet_node_resident", nodeLabels(n), float64(n.Headroom.ResidentCount))
		}
		pw.family("bt_fleet_node_bandwidth_gbs", "gauge",
			"Projected DRAM bandwidth demand and capacity per fleet node.")
		for _, n := range s.PerNode {
			pw.sample("bt_fleet_node_bandwidth_gbs",
				append(nodeLabels(n), label{"side", "demand"}), n.Headroom.BWDemandGBs)
			pw.sample("bt_fleet_node_bandwidth_gbs",
				append(nodeLabels(n), label{"side", "capacity"}), n.Headroom.BWCapacityGBs)
		}
		pw.family("bt_fleet_node_cores", "gauge",
			"Projected PU-core demand and capacity per fleet node.")
		for _, n := range s.PerNode {
			pw.sample("bt_fleet_node_cores",
				append(nodeLabels(n), label{"side", "demand"}), n.Headroom.CoresDemand)
			pw.sample("bt_fleet_node_cores",
				append(nodeLabels(n), label{"side", "capacity"}), n.Headroom.CoresCapacity)
		}
	}

	if s.Latency != nil {
		pw.family("bt_fleet_session_latency_seconds", "summary",
			"Completed-session latency across the fleet (virtual seconds under Sim).")
		pw.summary("bt_fleet_session_latency_seconds", nil, s.Latency)
	}
	return pw.err
}

// nodeLabels is the per-node label set. The slice is freshly allocated
// per call so callers may append resource-side labels without aliasing.
func nodeLabels(n FleetNodeStats) []label {
	return []label{{"node", n.ID}, {"device", n.Device}}
}

// rate renders a ratio as a compact string for JSON snapshots (avoids
// NaN when the denominator is zero).
func rate(num, den int) string {
	if den == 0 {
		return "0"
	}
	return strconv.FormatFloat(float64(num)/float64(den), 'f', 4, 64)
}

// RejectionRate is the fleet's rejected/arrivals ratio rendered without
// NaN on an empty fleet.
func (s FleetStats) RejectionRate() string { return rate(s.Rejected, s.Arrivals) }
