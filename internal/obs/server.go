package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"bettertogether/internal/metrics"
	"bettertogether/internal/trace"
)

// SessionInfo is one runtime session's row in the live session table.
type SessionInfo struct {
	Name     string `json:"name"`
	App      string `json:"app"`
	Schedule string `json:"schedule"`
	Tasks    int    `json:"tasks"`
	Replans  int    `json:"replans"`
	// PerTaskSec and ElapsedSec are the session's aggregate latency and
	// measured window so far, in seconds.
	PerTaskSec float64 `json:"perTaskSec"`
	ElapsedSec float64 `json:"elapsedSec"`
	EnergyJ    float64 `json:"energyJ"`
	// Resident reports whether the session still occupies admission
	// capacity; Err is its terminal error, if it failed.
	Resident bool   `json:"resident"`
	Err      string `json:"err,omitempty"`
}

// Headroom is the runtime's live admission accounting: current projected
// demand stacked across resident sessions against the headroom-scaled
// device capacities.
type Headroom struct {
	BWDemandGBs   float64 `json:"bwDemandGBs"`
	BWCapacityGBs float64 `json:"bwCapacityGBs"`
	CoresDemand   float64 `json:"coresDemand"`
	CoresCapacity float64 `json:"coresCapacity"`
	ResidentCount int     `json:"residentCount"`
	AdmittedTotal int     `json:"admittedTotal"`
	RejectedTotal int     `json:"rejectedTotal"`
}

// Inspector is the read-only runtime surface the server introspects.
// *runtime.Runtime implements it; tests use fakes. All methods must be
// safe for concurrent use while sessions run.
type Inspector interface {
	// SessionInfos returns every session ever admitted, admission order.
	SessionInfos() []SessionInfo
	// SessionMetrics returns a session's aggregated collector (nil when
	// the session does not collect metrics or does not exist).
	SessionMetrics(name string) *metrics.Pipeline
	// SessionTimeline returns a copy of a session's accumulated trace
	// (nil when not collected or unknown).
	SessionTimeline(name string) *trace.Timeline
	// AdmissionHeadroom returns the live admission accounting.
	AdmissionHeadroom() Headroom
}

// ServerConfig wires the introspection handler's data sources. Every
// field is optional; endpoints degrade to empty-but-valid responses.
type ServerConfig struct {
	// Inspector serves /sessions, the per-session /metrics families, and
	// /trace?session=.
	Inspector Inspector
	// Stream serves /events.
	Stream *Stream
	// Metrics are the /metrics writers after the Inspector's families,
	// called in order on every scrape: each writes its own complete
	// families (PromText over a single run's collector,
	// (*Stream).PromEvents, PromCache, FleetStats.PromFleet, ...).
	Metrics []func(io.Writer) error
	// Timeline supplies the /trace document when no session is selected
	// (a single run's timeline, or (*runtime.Runtime).Timeline's merge).
	Timeline func() *trace.Timeline
	// Traces serves the /traces endpoints (the session-lifecycle tracer's
	// Handler). Nil leaves /traces unmounted.
	Traces http.Handler
}

// NewHandler builds the introspection HTTP handler:
//
//	/            index of mounted endpoints
//	/healthz     liveness probe ("ok")
//	/metrics     Prometheus text exposition
//	/sessions    live runtime session table + admission headroom (JSON)
//	/trace       Chrome trace_event JSON (?session= selects one session)
//	/events      recent event-ring contents (JSON; ?n=/?limit= bound the
//	             count, ?kind= filters by event kind)
//	/traces      causal session-lifecycle traces (when a tracer is wired)
//	/debug/pprof Go runtime profiles
func NewHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	index := "bettertogether introspection\n\n" +
		"/healthz      liveness\n" +
		"/metrics      Prometheus text exposition\n" +
		"/sessions     session table + admission headroom (JSON)\n" +
		"/trace        Chrome trace_event JSON (?session=NAME)\n" +
		"/events       recent events (JSON, ?n=COUNT&limit=COUNT&kind=KIND)\n"
	if cfg.Traces != nil {
		index += "/traces       session lifecycle traces (JSON; /traces/NAME, ?format=chrome)\n"
	}
	index += "/debug/pprof  Go runtime profiles\n"
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, index)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", cfg.handleMetrics)
	mux.HandleFunc("/sessions", cfg.handleSessions)
	mux.HandleFunc("/trace", cfg.handleTrace)
	mux.HandleFunc("/events", cfg.handleEvents)
	if cfg.Traces != nil {
		mux.Handle("/traces", cfg.Traces)
		mux.Handle("/traces/", cfg.Traces)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the full Prometheus exposition: the Inspector's
// per-session and admission families, then every Metrics writer in order.
func (cfg ServerConfig) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if cfg.Inspector != nil {
		if err := promInspector(w, cfg.Inspector); err != nil {
			return
		}
	}
	for _, write := range cfg.Metrics {
		if err := write(w); err != nil {
			return
		}
	}
}

// promInspector writes one namespaced source per inspected session, the
// session-level gauges, and the admission headroom.
func promInspector(w io.Writer, insp Inspector) error {
	infos := insp.SessionInfos()
	var sources []PromSource
	for _, info := range infos {
		if m := insp.SessionMetrics(info.Name); m != nil {
			sources = append(sources, PromSource{Session: info.Name, Metrics: m})
		}
	}
	if err := PromText(w, sources...); err != nil {
		return err
	}
	pw := &promWriter{w: w}
	pw.family("bt_session_tasks_total", "counter", "Completed stream tasks per session.")
	for _, info := range infos {
		pw.sample("bt_session_tasks_total", []label{{"session", info.Name}, {"app", info.App}}, float64(info.Tasks))
	}
	pw.family("bt_session_replans_total", "counter", "Schedule changes from admission churn per session.")
	for _, info := range infos {
		pw.sample("bt_session_replans_total", []label{{"session", info.Name}, {"app", info.App}}, float64(info.Replans))
	}
	pw.family("bt_session_per_task_seconds", "gauge", "Completion-weighted mean per-task latency per session.")
	for _, info := range infos {
		pw.sample("bt_session_per_task_seconds", []label{{"session", info.Name}, {"app", info.App}}, info.PerTaskSec)
	}
	pw.family("bt_session_resident", "gauge", "1 while the session occupies admission capacity.")
	for _, info := range infos {
		v := 0.0
		if info.Resident {
			v = 1
		}
		pw.sample("bt_session_resident", []label{{"session", info.Name}, {"app", info.App}}, v)
	}
	h := insp.AdmissionHeadroom()
	pw.family("bt_admission_bandwidth_gbs", "gauge", "Projected DRAM bandwidth demand and headroom capacity.")
	pw.sample("bt_admission_bandwidth_gbs", []label{{"side", "demand"}}, h.BWDemandGBs)
	pw.sample("bt_admission_bandwidth_gbs", []label{{"side", "capacity"}}, h.BWCapacityGBs)
	pw.family("bt_admission_cores", "gauge", "Projected PU-core demand and headroom capacity.")
	pw.sample("bt_admission_cores", []label{{"side", "demand"}}, h.CoresDemand)
	pw.sample("bt_admission_cores", []label{{"side", "capacity"}}, h.CoresCapacity)
	pw.family("bt_sessions_resident", "gauge", "Sessions currently occupying admission capacity.")
	pw.sample("bt_sessions_resident", nil, float64(h.ResidentCount))
	pw.family("bt_admissions_total", "counter", "Admissions accepted since runtime start.")
	pw.sample("bt_admissions_total", nil, float64(h.AdmittedTotal))
	pw.family("bt_admission_rejections_total", "counter", "Admissions rejected since runtime start.")
	pw.sample("bt_admission_rejections_total", nil, float64(h.RejectedTotal))
	return pw.err
}

// sessionsDoc is the /sessions response body.
type sessionsDoc struct {
	Sessions []SessionInfo `json:"sessions"`
	Headroom Headroom      `json:"headroom"`
}

// handleSessions serves the live session table.
func (cfg ServerConfig) handleSessions(w http.ResponseWriter, _ *http.Request) {
	doc := sessionsDoc{Sessions: []SessionInfo{}}
	if cfg.Inspector != nil {
		if infos := cfg.Inspector.SessionInfos(); infos != nil {
			doc.Sessions = infos
		}
		doc.Headroom = cfg.Inspector.AdmissionHeadroom()
	}
	writeJSON(w, doc)
}

// handleTrace serves Chrome trace_event JSON: one session's timeline
// with ?session=, otherwise the configured Timeline.
func (cfg ServerConfig) handleTrace(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	var tl *trace.Timeline
	switch {
	case name != "" && cfg.Inspector != nil:
		tl = cfg.Inspector.SessionTimeline(name)
		if tl == nil {
			http.Error(w, fmt.Sprintf("no trace for session %q", name), http.StatusNotFound)
			return
		}
	case name != "":
		http.Error(w, "no session inspector mounted", http.StatusNotFound)
		return
	case cfg.Timeline != nil:
		tl = cfg.Timeline()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = ChromeTrace(w, tl)
}

// eventWire is an Event's JSON shape on /events.
type eventWire struct {
	Seq     uint64 `json:"seq"`
	Wall    string `json:"wall"`
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Stage   string `json:"stage,omitempty"`
	PU      string `json:"pu,omitempty"`
	Chunk   *int   `json:"chunk,omitempty"`
	Task    *int   `json:"task,omitempty"`
	Wave    *int   `json:"wave,omitempty"`
	DurNs   int64  `json:"durNs,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// eventsDoc is the /events response body.
type eventsDoc struct {
	Total    uint64      `json:"total"`
	Capacity int         `json:"capacity"`
	Events   []eventWire `json:"events"`
}

// parseKind resolves an /events ?kind= value to its Kind, or reports
// that the name matches no known kind.
func parseKind(name string) (Kind, bool) {
	for k, kn := range kindNames {
		if kn == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// handleEvents serves the recent ring contents, oldest first. ?n= and
// ?limit= (synonyms) bound the count; ?kind= keeps only one event kind.
// Malformed values fail fast with 400 rather than silently serving the
// unfiltered ring.
func (cfg ServerConfig) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("n") != "" && q.Get("limit") != "" {
		http.Error(w, "specify either n or limit, not both", http.StatusBadRequest)
		return
	}
	n := 0
	for _, param := range []string{"n", "limit"} {
		raw := q.Get(param)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			http.Error(w, param+" must be a non-negative integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	filtered := false
	var want Kind
	if raw := q.Get("kind"); raw != "" {
		k, ok := parseKind(raw)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown kind %q; valid kinds: %s", raw, strings.Join(kindNames[:], ", ")), http.StatusBadRequest)
			return
		}
		want, filtered = k, true
	}
	// A kind filter limits after filtering — "the last N events of this
	// kind" — so the whole ring is scanned; otherwise the ring itself
	// bounds the fetch.
	var events []Event
	if filtered {
		for _, e := range cfg.Stream.Recent(0) {
			if e.Kind == want {
				events = append(events, e)
			}
		}
		if n > 0 && len(events) > n {
			events = events[len(events)-n:]
		}
	} else {
		events = cfg.Stream.Recent(n)
	}
	doc := eventsDoc{
		Total:    cfg.Stream.Total(),
		Capacity: cfg.Stream.Capacity(),
		Events:   []eventWire{},
	}
	for _, e := range events {
		ew := eventWire{
			Seq:  e.Seq,
			Wall: e.Wall.Format(time.RFC3339Nano),
			Kind: e.Kind.String(),

			Session: e.Session,
			Stage:   e.Stage,
			PU:      e.PU,
			DurNs:   int64(e.Dur),
			Detail:  e.Detail,
		}
		if e.Chunk >= 0 {
			c := e.Chunk
			ew.Chunk = &c
		}
		if e.Task >= 0 {
			t := e.Task
			ew.Task = &t
		}
		if e.Wave >= 0 {
			wv := e.Wave
			ew.Wave = &wv
		}
		doc.Events = append(doc.Events, ew)
	}
	writeJSON(w, doc)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running introspection server. Construct with Serve; stop
// with Close.
type Server struct {
	srv *http.Server
	ln  net.Listener
	// drain bounds how long Close waits for in-flight handlers before
	// force-closing their connections (defaults to 2s; tests shorten it).
	drain time.Duration
}

// Serve starts the introspection server on addr (e.g. ":9090",
// "127.0.0.1:0"). It returns once the listener is bound, so the
// endpoints are immediately reachable; the accept loop runs on its own
// goroutine until Close.
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: NewHandler(cfg)}, ln: ln, drain: 2 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down: it stops accepting connections and
// drains in-flight handlers for a bounded window, then force-closes
// whatever is still running. A reader parked on /events can therefore
// delay Close by at most the drain window — never hang it forever.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.drain)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	if cerr := s.srv.Close(); cerr != nil {
		return cerr
	}
	return err
}
