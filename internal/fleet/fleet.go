// Package fleet is the many-device control plane over the per-device
// runtime layer: admission stops being a single-SoC decision and becomes
// a traffic-routing problem across a registry of simulated devices.
//
// The split mirrors a capacity-planning/provisioning architecture:
//
//   - The registry holds N nodes, each wrapping one internal/runtime
//     Runtime bound to a fresh soc.Catalog device. Nodes advertise
//     headroom through the runtime's admission accounting — exactly the
//     projected steady-state DRAM-bandwidth/PU-core demand Admit checks
//     applicants against.
//   - The placement service ranks candidate nodes by projected
//     interference headroom (per-device-class affinity first, normalized
//     resource slack second) and reserves by admitting: a refusal is a
//     typed *runtime.AdmissionError, and placement spills over to the
//     next-ranked node instead of failing the arrival.
//   - Sessions land held (runtime.AdmitOptions.Hold): the reservation
//     occupies capacity and shapes co-residents' interference
//     environments immediately, while execution is released on the
//     replay's logical clock — which is what makes a fleet replay
//     deterministic enough to compare byte-for-byte across runs.
//
// Arrival generation (seeded Poisson and bursty patterns) and trace
// replay live in this package too; cmd/btfleet is the CLI over them.
// Fleet-level counters export through internal/obs as the bt_fleet_*
// Prometheus families and KindPlace events on the shared stream.
package fleet

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/obs/sessiontrace"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/runtime"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
)

// NodeSpec declares one device class's population in the registry.
type NodeSpec struct {
	// Device is the soc catalog name (pixel7a, oneplus11, jetson,
	// jetson-lp).
	Device string
	// Count is how many independent nodes of this class to register.
	Count int
}

// Config configures a Fleet.
type Config struct {
	// Nodes declares the registry, in declaration order. Required.
	Nodes []NodeSpec
	// Engine executes every node's session waves; nil selects
	// pipeline.SimEngine (the deterministic replay path).
	Engine pipeline.Engine
	// Seed derives each node runtime's noise stream: node i uses
	// Seed + i*nodeSeedStride, so populations are heterogeneous but
	// reproducible.
	Seed int64
	// BWHeadroom, CoreHeadroom, ReplanDelta, ProfileReps, AutotuneTasks
	// and K forward to every node's runtime.Config (zero values select
	// the runtime defaults).
	BWHeadroom    float64
	CoreHeadroom  float64
	ReplanDelta   float64
	ProfileReps   int
	AutotuneTasks int
	K             int
	// CacheCapacity, when positive, shares one schedule cache across all
	// node runtimes — recurring (app, device-class, env) tuples then hit
	// across the whole fleet, not just within a node. CacheBucket is its
	// Env quantization width (0 selects the schedcache default).
	CacheCapacity int
	CacheBucket   float64
	// Affinity maps an application name to its preferred device class:
	// placement ranks matching nodes ahead of the rest, and spillover
	// crosses into non-preferred classes only when every preferred node
	// refuses. Unlisted applications rank purely by headroom.
	Affinity map[string]string
	// IndexBands sizes the banded placement index: scores quantize into
	// this many headroom bands so an arrival sweeps best-band-first
	// instead of scoring the whole registry. 0 selects
	// DefaultIndexBands; negative disables the index entirely and every
	// arrival falls back to the exhaustive O(nodes) rank — the reference
	// order the index is equivalence-tested against.
	IndexBands int
	// Events, when non-nil, receives every node runtime's events plus the
	// fleet's own KindPlace placement decisions and KindReject fleet-wide
	// rejections.
	Events obs.Sink
	// OnlineProf, when non-nil, enables feedback-driven replanning on
	// every node runtime: each node runs its own estimator and drift
	// detector over the shared event stream (events are tagged by
	// session, and session names are fleet-unique).
	OnlineProf *onlineprof.Config
	// Trace, when non-nil, records causal session-lifecycle spans for
	// sampled arrivals: the fleet adds arrival/placement-attempt/
	// migration spans and every node runtime adds its admission, wave,
	// re-plan, and completion spans to the same per-session trace
	// (session names are fleet-unique, so one tracer serves all nodes).
	Trace *sessiontrace.Tracer
}

// nodeSeedStride separates node noise streams; a large odd prime so
// per-session seed offsets (multiples of small primes) never collide
// across nodes.
const nodeSeedStride = 1_000_003

// ParseNodeSpecs parses the CLI registry syntax: a comma-separated list
// of "<device>" or "<device>=<count>" entries, e.g.
// "pixel7a=2,jetson". Device validity is checked at New, not here.
func ParseNodeSpecs(s string) ([]NodeSpec, error) {
	var specs []NodeSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := NodeSpec{Device: part, Count: 1}
		if name, count, ok := strings.Cut(part, "="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(count))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("fleet: node spec %q: count must be a positive integer", part)
			}
			spec.Device, spec.Count = strings.TrimSpace(name), n
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fleet: node spec %q declares no nodes", s)
	}
	return specs, nil
}

// ParseAffinity parses the CLI affinity syntax: a comma-separated list
// of "<app>=<device>" pairs, e.g. "vision=jetson,octree=pixel7a".
func ParseAffinity(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		app, dev, ok := strings.Cut(part, "=")
		app, dev = strings.TrimSpace(app), strings.TrimSpace(dev)
		if !ok || app == "" || dev == "" {
			return nil, fmt.Errorf("fleet: affinity %q: want <app>=<device>", part)
		}
		out[app] = dev
	}
	return out, nil
}

// Node is one registry entry: a catalog device with its own runtime.
type Node struct {
	// ID is fleet-unique: "<device>/<k>" with k the per-class ordinal.
	ID string
	// Device is the node's freshly constructed catalog device.
	Device *soc.Device
	// RT is the node's runtime; all placement goes through its Admit.
	RT *runtime.Runtime

	placed   int  // sessions landed here (fleet mu)
	rejected int  // admission refusals incl. spillover probes (fleet mu)
	drained  bool // cordoned out of placement (fleet mu)
}

// activeSession is the fleet's view of one session it placed and has
// not yet seen depart: enough to re-place it verbatim during a drain
// migration. Guarded by the fleet mutex.
type activeSession struct {
	seq  int // placement sequence, the deterministic migration order
	app  *core.Application
	opts runtime.AdmitOptions
	node *Node
	sess *runtime.Session
}

// Fleet is a registry of device nodes plus the placement service routing
// sessions onto them. Construct with New; place with Place or Replay.
type Fleet struct {
	cfg   Config
	nodes []*Node
	cache *schedcache.Cache

	mu         sync.Mutex
	index      *bandIndex // nil when Config.IndexBands < 0
	active     map[string]*activeSession
	seq        int // placement sequence, names sessions fleet-uniquely
	arrivals   int
	placed     int
	spills     int
	rejected   int
	migrations int
	latency    metrics.Histogram
}

// New validates the configuration and builds the registry: one fresh
// catalog device and runtime per node.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fleet: config declares no nodes")
	}
	f := &Fleet{cfg: cfg, active: map[string]*activeSession{}}
	if cfg.CacheCapacity > 0 {
		f.cache = schedcache.New(cfg.CacheCapacity, cfg.CacheBucket)
	}
	for _, spec := range cfg.Nodes {
		if spec.Count <= 0 {
			return nil, fmt.Errorf("fleet: node spec %q has count %d", spec.Device, spec.Count)
		}
		for k := 0; k < spec.Count; k++ {
			dev, err := soc.DeviceByName(spec.Device)
			if err != nil {
				return nil, err
			}
			rt, err := runtime.New(dev, f.nodeOptions(cfg, len(f.nodes))...)
			if err != nil {
				return nil, fmt.Errorf("fleet: node %s/%d: %w", spec.Device, k, err)
			}
			f.nodes = append(f.nodes, &Node{
				ID:     fmt.Sprintf("%s/%d", spec.Device, k),
				Device: dev,
				RT:     rt,
			})
		}
	}
	if cfg.IndexBands >= 0 {
		bands := cfg.IndexBands
		if bands == 0 {
			bands = DefaultIndexBands
		}
		f.index = newBandIndex(bands)
		for _, n := range f.nodes {
			f.index.update(n, headroomScore(n.RT.AdmissionHeadroom()))
		}
	}
	return f, nil
}

// nodeByIDLocked resolves a node ID; nil when unknown.
func (f *Fleet) nodeByIDLocked(id string) *Node {
	for _, n := range f.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// trackLocked records a just-placed session so drains can migrate it
// and departures can unfile it.
func (f *Fleet) trackLocked(name string, app *core.Application, opts runtime.AdmitOptions, n *Node, s *runtime.Session) {
	f.active[name] = &activeSession{seq: f.seq, app: app, opts: opts, node: n, sess: s}
}

// refileLocked refreshes one node's cached score in the banded index
// after its projected demand moved (admit, departure, migration).
// Drained nodes stay unfiled.
func (f *Fleet) refileLocked(n *Node) {
	if f.index == nil || n.drained {
		return
	}
	f.index.update(n, headroomScore(n.RT.AdmissionHeadroom()))
}

// departed unfiles a completed session and refreshes its node's index
// position — the replay departure hook.
func (f *Fleet) departed(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.active[name]
	if !ok {
		return
	}
	delete(f.active, name)
	f.refileLocked(e.node)
}

// nodeOptions maps the fleet configuration onto one node runtime's
// functional options. Zero-valued fleet fields stay absent, so the
// runtime's own defaults apply; set fields are validated by the options
// themselves at New.
func (f *Fleet) nodeOptions(cfg Config, node int) []runtime.Option {
	opts := []runtime.Option{
		runtime.WithSeed(cfg.Seed + int64(node)*nodeSeedStride),
	}
	if cfg.Engine != nil {
		opts = append(opts, runtime.WithEngine(cfg.Engine))
	}
	if cfg.BWHeadroom > 0 || cfg.CoreHeadroom > 0 {
		bw, cores := cfg.BWHeadroom, cfg.CoreHeadroom
		if bw <= 0 {
			bw = runtime.DefaultBWHeadroom
		}
		if cores <= 0 {
			cores = runtime.DefaultCoreHeadroom
		}
		opts = append(opts, runtime.WithHeadroom(bw, cores))
	}
	if cfg.ProfileReps > 0 || cfg.AutotuneTasks > 0 || cfg.K > 0 {
		reps, autotune, k := cfg.ProfileReps, cfg.AutotuneTasks, cfg.K
		if reps <= 0 {
			reps = runtime.DefaultProfileReps
		}
		if autotune <= 0 {
			autotune = runtime.DefaultAutotuneTasks
		}
		if k <= 0 {
			k = runtime.DefaultReplanK
		}
		opts = append(opts, runtime.WithPlanningBudget(reps, autotune, k))
	}
	if cfg.Events != nil {
		opts = append(opts, runtime.WithEvents(cfg.Events))
	}
	if f.cache != nil {
		opts = append(opts, runtime.WithSchedCache(f.cache))
	}
	if cfg.ReplanDelta > 0 {
		opts = append(opts, runtime.WithReplanDelta(cfg.ReplanDelta))
	}
	if cfg.OnlineProf != nil {
		opts = append(opts, runtime.WithOnlineProfiling(*cfg.OnlineProf))
	}
	if cfg.Trace != nil {
		opts = append(opts, runtime.WithSessionTrace(cfg.Trace))
	}
	return opts
}

// ReplansFromDrift sums drift-triggered replans across every node
// runtime (zero when online profiling is disabled).
func (f *Fleet) ReplansFromDrift() int {
	total := 0
	for _, n := range f.nodes {
		total += n.RT.ReplansFromDrift()
	}
	return total
}

// OnlineProfStats merges every node runtime's feedback-loop counters;
// ok is false when online profiling is disabled fleet-wide.
func (f *Fleet) OnlineProfStats() (obs.OnlineProfStats, bool) {
	var out obs.OnlineProfStats
	any := false
	for _, n := range f.nodes {
		s, ok := n.RT.OnlineProfStats()
		if !ok {
			continue
		}
		any = true
		out.Observations += s.Observations
		out.Cells += s.Cells
		out.LatchedCells += s.LatchedCells
		out.DriftsTriggered += s.DriftsTriggered
		out.DriftReplans += s.DriftReplans
	}
	return out, any
}

// SLOStats merges every node runtime's deadline-attainment counters;
// ok is false when no deadline-carrying session has completed
// fleet-wide (wire the introspection server's SLO hook only when it is
// true, so zero-deadline runs keep their exposition unchanged).
func (f *Fleet) SLOStats() (obs.SLOStats, bool) {
	var out obs.SLOStats
	any := false
	for _, n := range f.nodes {
		s, ok := n.RT.SLOStats()
		if !ok {
			continue
		}
		any = true
		out.Merge(s)
	}
	return out, any
}

// Nodes returns the registry in declaration order.
func (f *Fleet) Nodes() []*Node { return append([]*Node(nil), f.nodes...) }

// Cache returns the shared schedule cache, nil when planning is uncached.
func (f *Fleet) Cache() *schedcache.Cache { return f.cache }

// Close shuts every node runtime down, stopping resident sessions.
func (f *Fleet) Close() {
	for _, n := range f.nodes {
		n.RT.Close()
	}
}

// observeLatency folds one completed session's elapsed virtual seconds
// into the fleet latency histogram.
func (f *Fleet) observeLatency(elapsedSec float64) {
	f.latency.Observe(time.Duration(elapsedSec * float64(time.Second)))
}

// Stats snapshots the fleet's placement counters and every node's
// admission headroom for export (obs.PromFleet, /metrics).
func (f *Fleet) Stats() obs.FleetStats {
	f.mu.Lock()
	s := obs.FleetStats{
		Nodes:      len(f.nodes),
		Arrivals:   f.arrivals,
		Placed:     f.placed,
		Spills:     f.spills,
		Rejected:   f.rejected,
		Migrations: f.migrations,
		Latency:    &f.latency,
	}
	perNode := make([]obs.FleetNodeStats, len(f.nodes))
	for i, n := range f.nodes {
		perNode[i] = obs.FleetNodeStats{
			ID:       n.ID,
			Device:   n.Device.Name,
			Placed:   n.placed,
			Rejected: n.rejected,
			Drained:  n.drained,
		}
		if n.drained {
			s.Drained++
		}
	}
	f.mu.Unlock()
	// Headroom reads each node runtime's lock; take them outside ours.
	for i, n := range f.nodes {
		perNode[i].Headroom = n.RT.AdmissionHeadroom()
	}
	s.PerNode = perNode
	return s
}

// emit sends one fleet-level event to the configured sink, if any.
func (f *Fleet) emit(kind obs.Kind, fill func(*obs.Event)) {
	if f.cfg.Events == nil {
		return
	}
	e := obs.NewEvent(kind)
	fill(&e)
	f.cfg.Events.Emit(e)
}
