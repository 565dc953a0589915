package obs

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bettertogether/internal/metrics"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/trace"
)

// The two golden files pin the server's full /metrics body and its
// merged /trace body for one fixed configuration with every source set.
// They are never regenerated to make a change pass: a diff means a
// family, a series, its order or a trace track moved.
var (
	serverMetricsGoldenPath = filepath.Join("testdata", "server_metrics.golden")
	serverTraceGoldenPath   = filepath.Join("testdata", "server_trace.golden")
)

// goldenServerConfig wires a two-session fake runtime, an event stream,
// and schedule-cache, fleet, online-profiler and SLO sources.
func goldenServerConfig() ServerConfig {
	vision := &trace.Timeline{}
	vision.Add(trace.Span{Chunk: 0, PU: "gpu", Stage: "blur", StageIndex: 0, Task: 0, Start: 0.001, End: 0.004})
	vision.Add(trace.Span{Chunk: 1, PU: "little", Stage: "edge", StageIndex: 1, Task: 0, Start: 0.004, End: 0.0055})
	insp := &fakeInspector{
		infos: []SessionInfo{
			{Name: "octree#0", App: "octree", Schedule: "[big gpu]", Tasks: 12, Replans: 1, PerTaskSec: 0.004, Resident: true},
			{Name: "vision#1", App: "vision", Schedule: "[gpu little]", Tasks: 30, PerTaskSec: 0.0025},
			{Name: "alexnet#2", App: "alexnet", Schedule: "[gpu]", Err: "boom"},
		},
		metrics:   map[string]*metrics.Pipeline{"octree#0": testCollector()},
		timelines: map[string]*trace.Timeline{"octree#0": testTimeline(), "vision#1": vision},
		headroom: Headroom{
			BWDemandGBs: 10, BWCapacityGBs: 40,
			CoresDemand: 6, CoresCapacity: 16,
			ResidentCount: 1, AdmittedTotal: 3, RejectedTotal: 1,
		},
	}
	stream := NewStream(16)
	for _, k := range []Kind{KindAdmit, KindAdmit, KindStageDone} {
		stream.Emit(NewEvent(k))
	}
	slo := &metrics.Histogram{}
	slo.Observe(1500 * time.Millisecond)
	slo.Observe(4 * time.Second)
	return ServerConfig{
		Inspector: insp,
		Stream:    stream,
		Metrics: []func(io.Writer) error{
			stream.PromEvents,
			func(w io.Writer) error {
				return PromCache(w, schedcache.Stats{Hits: 42, Misses: 7, Stores: 7, Evictions: 2, Size: 5, Capacity: 64})
			},
			sampleFleetStats().PromFleet,
			OnlineProfStats{Observations: 120, Cells: 7, LatchedCells: 1, DriftsTriggered: 2, DriftReplans: 2}.PromOnlineProf,
			SLOStats{Sessions: 2, Attained: 1, Missed: 1, Latency: slo}.PromSLO,
		},
		Timeline: func() *trace.Timeline {
			return trace.MergeSessions(
				trace.SessionTrace{Name: "octree#0", Timeline: insp.timelines["octree#0"]},
				trace.SessionTrace{Name: "vision#1", Timeline: insp.timelines["vision#1"]},
			)
		},
	}
}

// TestServerGolden compares /metrics and the no-session /trace with
// their golden files byte for byte.
func TestServerGolden(t *testing.T) {
	h := NewHandler(goldenServerConfig())
	for _, c := range []struct{ path, golden string }{
		{"/metrics", serverMetricsGoldenPath},
		{"/trace", serverTraceGoldenPath},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, h, c.path)
		if code != 200 {
			t.Fatalf("GET %s → %d", c.path, code)
		}
		if body != string(want) {
			t.Errorf("GET %s differs from %s:\n got:\n%s\nwant:\n%s", c.path, c.golden, body, want)
		}
	}
}
