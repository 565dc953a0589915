package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"

	"bettertogether/internal/v1rand"
)

// Arrival is one session arriving at the fleet: an application showing
// up at a logical time and dwelling (staying resident) for a while
// before it runs to completion and departs.
type Arrival struct {
	// At is the arrival's logical time in virtual seconds.
	At float64 `json:"at"`
	// App is the application name (pkg/btapps).
	App string `json:"app"`
	// Dwell is how long the session stays resident before departing, in
	// virtual seconds. Departure time is At + Dwell.
	Dwell float64 `json:"dwell"`
	// Tasks is the session's stream length (<= 0 selects the runtime
	// default).
	Tasks int `json:"tasks,omitempty"`
	// Seed drives the session's simulation-noise stream.
	Seed int64 `json:"seed,omitempty"`
	// Session optionally names the session; empty derives the replay
	// default "<app>#<trace-index>". Effective names, explicit or
	// default, must be unique across the trace (DecodeTrace and
	// ReplayWith reject duplicates — session names key the fleet's
	// active-session tracking and must be fleet-unique).
	Session string `json:"session,omitempty"`
	// Deadline is the session's SLO budget in virtual seconds of modeled
	// execution time. 0 attaches no per-arrival deadline (the replay-wide
	// ReplayOptions.SLODeadline, if set, applies instead); negative
	// values fail DecodeTrace.
	Deadline float64 `json:"deadline,omitempty"`
}

// sessionName is the name arrival i replays under: its own Session, or
// the default "<app>#<i>".
func sessionName(a Arrival, i int) string {
	if a.Session != "" {
		return a.Session
	}
	return fmt.Sprintf("%s#%d", a.App, i)
}

// sessionNames returns every arrival's effective session name, or an
// error naming the first two arrivals that share one.
func sessionNames(arrivals []Arrival) ([]string, error) {
	names := make([]string, len(arrivals))
	seen := make(map[string]int, len(arrivals))
	for i, a := range arrivals {
		name := sessionName(a, i)
		if j, dup := seen[name]; dup {
			hint := ""
			if a.Session == "" || arrivals[j].Session == "" {
				hint = " (an arrival without a session is named <app>#<index>)"
			}
			return nil, fmt.Errorf("arrival %d reuses session ID %q already used by arrival %d%s", i, name, j, hint)
		}
		seen[name] = i
		names[i] = name
	}
	return names, nil
}

// checkTimes refuses an arrival whose time, dwell or deadline is
// negative or not finite: its events would sort out of place on the
// replay timeline. DecodeTrace and ReplayWith share it, so a trace built
// in code meets the rule a decoded one does.
func checkTimes(arrivals []Arrival) error {
	for i, a := range arrivals {
		for _, v := range [...]struct {
			name string
			val  float64
		}{{"time at", a.At}, {"dwell", a.Dwell}, {"deadline", a.Deadline}} {
			if v.val < 0 {
				return fmt.Errorf("arrival %d has negative %s=%v", i, v.name, v.val)
			}
			if !finiteTime(v.val) {
				return fmt.Errorf("arrival %d has non-finite %s=%v", i, v.name, v.val)
			}
		}
	}
	return nil
}

// finiteTime reports whether v is usable as a logical time or budget:
// non-negative and finite, which NaN is not.
func finiteTime(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }

// Trace is a replayable arrival sequence.
type Trace struct {
	// Arrivals in non-decreasing At order. DecodeTrace requires that
	// order; ReplayWith runs arrivals in time order whatever their order
	// here, breaking ties by position.
	Arrivals []Arrival `json:"arrivals"`
}

// Arrival patterns.
const (
	// PatternPoisson draws exponential inter-arrival gaps at a fixed
	// rate — the memoryless open-loop arrival model.
	PatternPoisson = "poisson"
	// PatternBursty clusters arrivals: every BurstEvery seconds a burst
	// of Burst near-simultaneous arrivals lands, the adversarial shape
	// for placement (every burst member sees the same headroom and must
	// be spread by spillover).
	PatternBursty = "bursty"
)

// GenConfig parameterizes Generate.
type GenConfig struct {
	// Pattern selects the arrival process (PatternPoisson or
	// PatternBursty; empty selects Poisson).
	Pattern string
	// Arrivals is the trace length. Required.
	Arrivals int
	// RatePerSec is the Poisson arrival rate (<= 0 selects 1.0).
	RatePerSec float64
	// Burst and BurstEvery shape the bursty pattern: Burst arrivals per
	// cluster (<= 0 selects 4), one cluster every BurstEvery seconds
	// (<= 0 selects 10).
	Burst      int
	BurstEvery float64
	// Apps is the application mix, cycled in order so the mix is exact
	// rather than sampled. Required.
	Apps []string
	// MeanDwell is the mean exponential dwell in virtual seconds
	// (<= 0 selects 30).
	MeanDwell float64
	// Tasks forwards to every arrival (<= 0 leaves the runtime default).
	Tasks int
	// Seed makes the trace reproducible: same config, same trace.
	Seed int64
}

// Generate builds a seeded synthetic arrival trace. All randomness comes
// from one stream seeded with cfg.Seed, so a config is a complete
// description of its trace. The stream is rand.NewSource(cfg.Seed)'s,
// drawn through v1rand's cheaper seeding.
func Generate(cfg GenConfig) (Trace, error) {
	if cfg.Arrivals <= 0 {
		return Trace{}, fmt.Errorf("fleet: generate: arrivals must be positive, got %d", cfg.Arrivals)
	}
	if len(cfg.Apps) == 0 {
		return Trace{}, fmt.Errorf("fleet: generate: empty application mix")
	}
	if cfg.RatePerSec <= 0 {
		cfg.RatePerSec = 1.0
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 4
	}
	if cfg.BurstEvery <= 0 {
		cfg.BurstEvery = 10
	}
	if cfg.MeanDwell <= 0 {
		cfg.MeanDwell = 30
	}

	rng := rand.New(v1rand.NewSource(cfg.Seed))
	tr := Trace{Arrivals: make([]Arrival, 0, cfg.Arrivals)}
	at := 0.0
	for i := 0; i < cfg.Arrivals; i++ {
		switch cfg.Pattern {
		case "", PatternPoisson:
			at += rng.ExpFloat64() / cfg.RatePerSec
		case PatternBursty:
			// Burst k of the cluster lands jittered within a tenth of a
			// second of the cluster's epoch.
			cluster := i / cfg.Burst
			at = float64(cluster)*cfg.BurstEvery + rng.Float64()*0.1
		default:
			return Trace{}, fmt.Errorf("fleet: generate: unknown pattern %q", cfg.Pattern)
		}
		tr.Arrivals = append(tr.Arrivals, Arrival{
			At:    at,
			App:   cfg.Apps[i%len(cfg.Apps)],
			Dwell: rng.ExpFloat64() * cfg.MeanDwell,
			Tasks: cfg.Tasks,
			Seed:  rng.Int63(),
		})
	}
	// Bursty jitter can reorder within a cluster; keep the trace sorted.
	sort.SliceStable(tr.Arrivals, func(a, b int) bool {
		return tr.Arrivals[a].At < tr.Arrivals[b].At
	})
	return tr, nil
}

// Encode writes the trace as indented JSON, the on-disk replay format.
func (t Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// DecodeTrace reads a JSON trace and validates it for replay: known
// shape, non-negative finite times, dwells and deadlines, non-decreasing
// arrival order, and unique effective session names (explicit or
// default). Each violation gets its own descriptive error naming the
// offending arrival and values, so a hand-edited trace fails with a
// pointer to the line that broke it rather than a generic rejection.
func DecodeTrace(r io.Reader) (Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("fleet: decode trace: %w", err)
	}
	if err := checkTimes(t.Arrivals); err != nil {
		return Trace{}, fmt.Errorf("fleet: decode trace: %w", err)
	}
	prev := 0.0
	for i, a := range t.Arrivals {
		if a.App == "" {
			return Trace{}, fmt.Errorf("fleet: decode trace: arrival %d has no app", i)
		}
		if a.At < prev {
			return Trace{}, fmt.Errorf("fleet: decode trace: arrival %d at=%v is non-monotonic: earlier than arrival %d at=%v", i, a.At, i-1, prev)
		}
		prev = a.At
	}
	if _, err := sessionNames(t.Arrivals); err != nil {
		return Trace{}, fmt.Errorf("fleet: decode trace: %w", err)
	}
	return t, nil
}
