package obs

import (
	"strings"
	"testing"
	"time"

	"bettertogether/internal/metrics"
)

func sampleFleetStats() FleetStats {
	var h metrics.Histogram
	h.Observe(2 * time.Second)
	h.Observe(5 * time.Second)
	return FleetStats{
		Nodes:    2,
		Arrivals: 10,
		Placed:   8,
		Spills:   3,
		Rejected: 2,
		Latency:  &h,
		PerNode: []FleetNodeStats{
			{ID: "jetson/0", Device: "jetson", Placed: 5, Rejected: 1,
				Headroom: Headroom{BWDemandGBs: 40, BWCapacityGBs: 90, CoresDemand: 10, CoresCapacity: 28, ResidentCount: 2}},
			{ID: "pixel7a/0", Device: "pixel7a", Placed: 3, Rejected: 1,
				Headroom: Headroom{BWDemandGBs: 5, BWCapacityGBs: 40, CoresDemand: 4, CoresCapacity: 30, ResidentCount: 1}},
		},
	}
}

func TestPromFleetExposition(t *testing.T) {
	var b strings.Builder
	if err := sampleFleetStats().PromFleet(&b); err != nil {
		t.Fatalf("PromFleet: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE bt_fleet_nodes gauge",
		"bt_fleet_nodes 2",
		"# TYPE bt_fleet_arrivals_total counter",
		"bt_fleet_arrivals_total 10",
		"bt_fleet_placed_total 8",
		"bt_fleet_spillovers_total 3",
		"bt_fleet_rejections_total 2",
		`bt_fleet_node_placed_total{node="jetson/0",device="jetson"} 5`,
		`bt_fleet_node_rejections_total{node="pixel7a/0",device="pixel7a"} 1`,
		`bt_fleet_node_resident{node="jetson/0",device="jetson"} 2`,
		`bt_fleet_node_bandwidth_gbs{node="jetson/0",device="jetson",side="demand"} 40`,
		`bt_fleet_node_bandwidth_gbs{node="jetson/0",device="jetson",side="capacity"} 90`,
		`bt_fleet_node_cores{node="pixel7a/0",device="pixel7a",side="demand"} 4`,
		"# TYPE bt_fleet_session_latency_seconds summary",
		"bt_fleet_session_latency_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

// TestPromFleetNilLatencyOmitsSummary pins that an unset histogram drops
// the summary family instead of exporting zeros.
func TestPromFleetNilLatencyOmitsSummary(t *testing.T) {
	s := sampleFleetStats()
	s.Latency = nil
	s.PerNode = nil
	var b strings.Builder
	if err := s.PromFleet(&b); err != nil {
		t.Fatalf("PromFleet: %v", err)
	}
	out := b.String()
	if strings.Contains(out, "bt_fleet_session_latency_seconds") {
		t.Error("latency summary exported without a histogram")
	}
	if strings.Contains(out, "bt_fleet_node_") {
		t.Error("per-node families exported with an empty registry")
	}
}

func TestFleetRejectionRate(t *testing.T) {
	if got := (FleetStats{}).RejectionRate(); got != "0" {
		t.Errorf("empty fleet rate = %q, want 0", got)
	}
	if got := sampleFleetStats().RejectionRate(); got != "0.2000" {
		t.Errorf("rate = %q, want 0.2000", got)
	}
}

// TestServerMetricsIncludeFleet lists PromFleet among the server's
// writers and checks the fleet families land on /metrics; without the
// writer they must stay absent.
func TestServerMetricsIncludeFleet(t *testing.T) {
	cfg := testServerConfig()
	cfg.Metrics = append(cfg.Metrics, sampleFleetStats().PromFleet)
	code, body := get(t, NewHandler(cfg), "/metrics")
	if code != 200 {
		t.Fatalf("/metrics → %d", code)
	}
	checkExposition(t, body)
	for _, want := range []string{
		"bt_fleet_nodes 2",
		"bt_fleet_rejections_total 2",
		`bt_fleet_node_placed_total{node="jetson/0",device="jetson"} 5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if _, plain := get(t, NewHandler(testServerConfig()), "/metrics"); strings.Contains(plain, "bt_fleet") {
		t.Error("fleet families exported without a PromFleet writer")
	}
}
