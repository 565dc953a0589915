package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/metrics"
	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/schedcache"
	"bettertogether/internal/soc"
	"bettertogether/pkg/btapps"
)

func mustApp(t *testing.T, name string) *core.Application {
	t.Helper()
	app, err := btapps.ByName(name)
	if err != nil {
		t.Fatalf("app %q: %v", name, err)
	}
	return app
}

func mustDevice(t *testing.T, name string) *soc.Device {
	t.Helper()
	dev, err := soc.DeviceByName(name)
	if err != nil {
		t.Fatalf("device %q: %v", name, err)
	}
	return dev
}

// mustRuntime builds a runtime from cfg, failing the test on an error.
func mustRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt
}

func TestNewRejectsMissingDevice(t *testing.T) {
	if _, err := New(Config{}); err == nil || !strings.Contains(err.Error(), "Config.Device") {
		t.Fatalf("New without a device: err %v, want one naming Config.Device", err)
	}
	if _, err := New(Config{Device: &soc.Device{}}); err == nil {
		t.Fatal("New accepted an invalid device")
	}
}

// identityAdjust is a valid profiler.Adjust for the validation table.
func identityAdjust(_ string, _ core.PUClass, sec float64) float64 { return sec }

// TestOptionValidation is the table of New's Config checks: a bad value
// fails with an error naming its field instead of falling back to a
// default, and zero or nil values select the defaults.
func TestOptionValidation(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	cache := schedcache.New(16, 0)
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means New accepts cfg
		// check, when set, inspects the runtime New built.
		check func(t *testing.T, rt *Runtime)
	}{
		{name: "negative bw headroom", cfg: Config{BWHeadroom: -1, CoreHeadroom: 3}, want: "Config.BWHeadroom"},
		{name: "NaN bw headroom", cfg: Config{BWHeadroom: math.NaN()}, want: "Config.BWHeadroom"},
		{name: "NaN core headroom", cfg: Config{BWHeadroom: 2, CoreHeadroom: math.NaN()}, want: "Config.CoreHeadroom"},
		{name: "Inf core headroom", cfg: Config{CoreHeadroom: math.Inf(1)}, want: "Config.CoreHeadroom"},
		{name: "negative delta", cfg: Config{ReplanDelta: -0.1}, want: "Config.ReplanDelta"},
		{name: "NaN delta", cfg: Config{ReplanDelta: math.NaN()}, want: "Config.ReplanDelta"},
		{name: "Inf delta", cfg: Config{ReplanDelta: math.Inf(1)}, want: "Config.ReplanDelta"},
		{name: "negative k", cfg: Config{K: -1}, want: "Config.K"},
		{name: "nil adjust", cfg: Config{ModelAdjustDigest: "x2"}, want: "ModelAdjust"},
		{name: "empty digest", cfg: Config{ModelAdjust: identityAdjust}, want: "ModelAdjustDigest"},
		{name: "zero bw headroom", cfg: Config{CoreHeadroom: 3}, check: func(t *testing.T, rt *Runtime) {
			h := rt.AdmissionHeadroom()
			if h.BWCapacityGBs != DefaultBWHeadroom*dev.DRAMBWGBs {
				t.Errorf("bandwidth capacity %v, want the default headroom's %v", h.BWCapacityGBs, DefaultBWHeadroom*dev.DRAMBWGBs)
			}
			if h.CoresCapacity != 3*rt.deviceCores() {
				t.Errorf("core capacity %v, want the configured 3x", h.CoresCapacity)
			}
		}},
		{name: "zero k", cfg: Config{}, check: func(t *testing.T, rt *Runtime) {
			if rt.cfg.K != DefaultReplanK {
				t.Errorf("candidate pool %d, want the default %d", rt.cfg.K, DefaultReplanK)
			}
		}},
		{name: "nil engine", cfg: Config{}, check: func(t *testing.T, rt *Runtime) {
			if _, ok := rt.Engine().(pipeline.SimEngine); !ok {
				t.Errorf("engine %T, want pipeline.SimEngine", rt.Engine())
			}
		}},
		{name: "nil events", cfg: Config{}},
		{name: "nil cache", cfg: Config{}, check: func(t *testing.T, rt *Runtime) {
			if rt.Cache() != nil {
				t.Error("an unset cache built one")
			}
			if rt.OnlineProfiler() != nil {
				t.Error("an unset OnlineProf enabled online profiling")
			}
			if _, ok := rt.OnlineProfStats(); ok {
				t.Error("OnlineProfStats reports enabled on an unconfigured runtime")
			}
		}},
		{name: "all fields applied", cfg: Config{
			Engine: pipeline.SimEngine{}, BWHeadroom: 4, CoreHeadroom: 4,
			K: 4, Seed: 7,
			Events: obs.NewStream(64), Cache: cache, ReplanDelta: 0.25,
			OnlineProf:  &onlineprof.Config{DriftThreshold: 0.5},
			ModelAdjust: identityAdjust, ModelAdjustDigest: "identity",
		}, check: func(t *testing.T, rt *Runtime) {
			if rt.Device() != dev {
				t.Error("Device() is not Config.Device")
			}
			if rt.Cache() != cache {
				t.Error("Config.Cache not installed")
			}
			est := rt.OnlineProfiler()
			if est == nil {
				t.Fatal("Config.OnlineProf built no estimator")
			}
			if got := est.Config().DriftThreshold; got != 0.5 {
				t.Errorf("estimator threshold = %v, want the configured 0.5", got)
			}
			if _, ok := rt.OnlineProfStats(); !ok {
				t.Error("OnlineProfStats reports disabled with profiling on")
			}
			if h := rt.AdmissionHeadroom(); h.BWCapacityGBs != 4*dev.DRAMBWGBs {
				t.Errorf("bandwidth capacity %v, want 4x", h.BWCapacityGBs)
			}
			if c := rt.cfg; c.K != 4 || c.ReplanDelta != 0.25 {
				t.Errorf("planning knobs k %d delta %v, want k 4 delta 0.25", c.K, c.ReplanDelta)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Device = dev
			rt, err := New(cfg)
			if tc.want != "" {
				if err == nil {
					rt.Close()
					t.Fatalf("New accepted %+v", tc.cfg)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Errorf("error %q does not name %s", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer rt.Close()
			if tc.check != nil {
				tc.check(t, rt)
			}
		})
	}
}

func TestSingleSessionCompletes(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{
		Tasks: 20, WaveTasks: 6, Warmup: 2,
		CollectMetrics: true, CollectTrace: true,
	})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	res := s.Wait()
	if res.Err != nil {
		t.Fatalf("session error: %v", res.Err)
	}
	if res.Tasks != 20 {
		t.Fatalf("completed %d tasks, want 20", res.Tasks)
	}
	if res.PerTask <= 0 || res.Elapsed <= 0 {
		t.Fatalf("degenerate aggregates: %+v", res)
	}
	if res.EnergyJ <= 0 || res.EnergyPerTaskJ <= 0 {
		t.Fatalf("sim runs must report energy: %+v", res)
	}
	app := s.App()
	m := s.Metrics()
	if m == nil {
		t.Fatal("CollectMetrics produced no collector")
	}
	// Every stage executed tasks+warmup times across all waves combined.
	for i := 0; i < m.NumStages(); i++ {
		if got := m.Stage(i).Dispatches(); got != 22 {
			t.Fatalf("stage %d dispatched %d times, want 22", i, got)
		}
	}
	if m.NumStages() != len(app.Stages) {
		t.Fatalf("collector has %d stage rows, app has %d stages", m.NumStages(), len(app.Stages))
	}
	tl := s.Timeline()
	if tl == nil || len(tl.Spans) == 0 {
		t.Fatal("CollectTrace produced no spans")
	}
	// Waves append on a monotonic session-local clock: spans from a later
	// wave must not start before an earlier wave's spans.
	// Per-chunk span order within a wave is already monotonic, so a simple
	// global horizon check suffices.
	horizon := 0.0
	for _, sp := range tl.Spans {
		if sp.End > horizon {
			horizon = sp.End
		}
		if sp.Start < 0 || sp.End < sp.Start {
			t.Fatalf("malformed span %+v", sp)
		}
	}
	if horizon <= 0 {
		t.Fatal("empty trace horizon")
	}
	rep := rt.Report(60)
	if !strings.Contains(rep, s.Name()) || !strings.Contains(rep, "octree") {
		t.Fatalf("report does not mention the session:\n%s", rep)
	}
}

// TestSingleSessionDeterministic pins that an un-perturbed session (no
// admission churn) aggregates identically across two runtimes.
func TestSingleSessionDeterministic(t *testing.T) {
	run := func() SessionResult {
		rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), Seed: 7})
		defer rt.Close()
		s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 24, WaveTasks: 8, Seed: 3})
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		return s.Wait()
	}
	a, b := run(), run()
	if a.Tasks != b.Tasks || a.PerTask != b.PerTask || a.Elapsed != b.Elapsed || a.EnergyJ != b.EnergyJ {
		t.Fatalf("non-deterministic session aggregates:\n%+v\n%+v", a, b)
	}
	if !a.Schedule.Equal(b.Schedule) {
		t.Fatalf("non-deterministic planning: %v vs %v", a.Schedule, b.Schedule)
	}
}

// gatedEngine blocks execution waves of one application until released,
// passing everything else straight through. Tests use it to hold a
// session resident while admission churn happens around it — without it,
// a fast simulated session can drain its whole task budget before a
// second Admit's (much slower) planning pass finishes, and there is
// nothing left to re-plan. Planning is unaffected: the sched package
// autotunes on its own engine, not the runtime's.
type gatedEngine struct {
	inner pipeline.Engine
	app   string
	gate  chan struct{}
}

func (g *gatedEngine) Name() string { return "gated-" + g.inner.Name() }

func (g *gatedEngine) Run(ctx context.Context, p *pipeline.Plan, opts pipeline.Options) pipeline.Result {
	if p.App.Name == g.app {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return pipeline.Result{Err: ctx.Err()}
		}
	}
	return g.inner.Run(ctx, p, opts)
}

// TestReplanOnSecondAdmit is the acceptance scenario: two apps share one
// runtime, and the second admission re-plans the resident session under
// the updated interference environment.
func TestReplanOnSecondAdmit(t *testing.T) {
	appA := mustApp(t, "octree")
	gate := &gatedEngine{inner: pipeline.SimEngine{}, app: appA.Name, gate: make(chan struct{})}
	rt := mustRuntime(t, Config{Device: mustDevice(t, "oneplus11"), Engine: gate})
	defer rt.Close()
	sA, err := rt.Admit(appA, AdmitOptions{Tasks: 120, WaveTasks: 4, CollectMetrics: true})
	if err != nil {
		t.Fatalf("Admit A: %v", err)
	}
	before := sA.Schedule()
	sB, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 40, WaveTasks: 4, CollectMetrics: true})
	if err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	// Admission re-plans residents synchronously before returning, so A's
	// schedule history already reflects B's arrival.
	if got := sA.Replans(); got < 1 {
		t.Fatalf("resident session was not re-planned on second admit (replans=%d)", got)
	}
	hist := sA.Schedules()
	if len(hist) < 2 {
		t.Fatalf("schedule history %v records no re-plan", hist)
	}
	if hist[1].Equal(before) {
		t.Fatalf("re-plan recorded an unchanged schedule %v", before)
	}
	close(gate.gate)
	resA, resB := sA.Wait(), sB.Wait()
	if resA.Err != nil || resB.Err != nil {
		t.Fatalf("session errors: A=%v B=%v", resA.Err, resB.Err)
	}
	if resA.Tasks != 120 || resB.Tasks != 40 {
		t.Fatalf("task counts A=%d B=%d, want 120/40", resA.Tasks, resB.Tasks)
	}
	// Per-session metrics are namespaced: distinct collectors, each
	// accounting exactly its own session's dispatches.
	mA, mB := sA.Metrics(), sB.Metrics()
	if mA == nil || mB == nil || mA == mB {
		t.Fatalf("sessions must own distinct collectors (A=%p B=%p)", mA, mB)
	}
	for i := 0; i < mA.NumStages(); i++ {
		if got := mA.Stage(i).Dispatches(); got != 120 {
			t.Fatalf("A stage %d dispatched %d times, want 120", i, got)
		}
	}
	for i := 0; i < mB.NumStages(); i++ {
		if got := mB.Stage(i).Dispatches(); got != 40 {
			t.Fatalf("B stage %d dispatched %d times, want 40", i, got)
		}
	}
}

// TestAdmissionRejectedTyped pins the typed rejection: two bandwidth-
// heavy vision pipelines exceed the Jetson's DRAM headroom.
func TestAdmissionRejectedTyped(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "jetson")})
	defer rt.Close()
	if _, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 200, WaveTasks: 4}); err != nil {
		t.Fatalf("first vision admit should fit: %v", err)
	}
	_, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 200, WaveTasks: 4})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("want *AdmissionError, got %v", err)
	}
	if adm.Resource != ResourceBandwidth {
		t.Fatalf("rejected on %q, want %q", adm.Resource, ResourceBandwidth)
	}
	if adm.Demand <= adm.Capacity {
		t.Fatalf("rejection with demand %.2f <= capacity %.2f", adm.Demand, adm.Capacity)
	}
	if adm.App != "vision" {
		t.Fatalf("rejection names %q", adm.App)
	}
	// A rejected applicant must not have registered a session.
	if got := len(rt.Sessions()); got != 1 {
		t.Fatalf("%d sessions after rejection, want 1", got)
	}
}

func TestAdmitAfterCloseFails(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	rt.Close()
	if _, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestPinnedScheduleNeverReplanned: a pinned session keeps its schedule
// across admission churn (only its environment updates).
func TestPinnedScheduleNeverReplanned(t *testing.T) {
	dev := mustDevice(t, "oneplus11")
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), dev.GPUClass())
	rt := mustRuntime(t, Config{Device: dev})
	defer rt.Close()
	sA, err := rt.Admit(app, AdmitOptions{Tasks: 80, WaveTasks: 4, Schedule: &pin})
	if err != nil {
		t.Fatalf("Admit pinned: %v", err)
	}
	if _, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 24, WaveTasks: 4}); err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	if got := sA.Replans(); got != 0 {
		t.Fatalf("pinned session re-planned %d times", got)
	}
	if !sA.Schedule().Equal(pin) {
		t.Fatalf("pinned schedule drifted to %v", sA.Schedule())
	}
	res := sA.Wait()
	if res.Err != nil {
		t.Fatalf("pinned session error: %v", res.Err)
	}
}

// TestStopCancelsSession: Stop interrupts a long session between waves
// and surfaces context.Canceled.
func TestStopCancelsSession(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), dev.GPUClass())
	rt := mustRuntime(t, Config{Device: dev})
	defer rt.Close()
	s, err := rt.Admit(app, AdmitOptions{Tasks: 1 << 30, WaveTasks: 1, Schedule: &pin})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	s.Stop()
	if !errors.Is(s.Err(), context.Canceled) {
		t.Fatalf("stopped session error = %v, want context.Canceled", s.Err())
	}
	// Idempotent.
	s.Stop()
	// The session left residency: Wait returns immediately.
	rt.Wait()
}

// TestConcurrentAdmitStopRace exercises the runtime under concurrent
// admission, stopping, and waiting — the -race satellite. Pinned
// schedules and a huge headroom keep every admission cheap and
// acceptable so the test stresses lifecycle, not planning.
func TestConcurrentAdmitStopRace(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), dev.GPUClass())
	rt := mustRuntime(t, Config{Device: dev, BWHeadroom: 1e9, CoreHeadroom: 1e9})
	const n = 8
	sessions := make([]*Session, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := rt.Admit(app, AdmitOptions{
				Name:  fmt.Sprintf("s%d", i),
				Tasks: 40, WaveTasks: 4,
				Schedule:       &pin,
				CollectMetrics: true,
			})
			if err != nil {
				t.Errorf("Admit %d: %v", i, err)
				return
			}
			sessions[i] = s
			if i%2 == 1 {
				s.Stop()
			} else {
				s.Wait()
			}
		}(i)
	}
	wg.Wait()
	rt.Close()
	rt.Wait()
	// Per-session metrics registries must not alias rows across sessions.
	seen := map[*metrics.Pipeline]string{}
	for i, s := range sessions {
		if s == nil {
			continue
		}
		m := s.Metrics()
		if m == nil {
			// A stopped session may have been canceled before its first
			// wave ever ran; a waited one must have collected.
			if i%2 == 0 {
				t.Fatalf("session %s lost its collector", s.Name())
			}
			continue
		}
		if prev, dup := seen[m]; dup {
			t.Fatalf("sessions %s and %s share a collector", prev, s.Name())
		}
		seen[m] = s.Name()
		for i := 0; i < m.NumStages(); i++ {
			if got := m.Stage(i).Dispatches(); got > 40 {
				t.Fatalf("session %s stage %d dispatched %d times (> budget): rows aliased?", s.Name(), i, got)
			}
		}
	}
	_ = rt.Report(40)
}

// TestSharedAppConcurrentSessions runs one AlexNet-sparse application
// instance in two sessions at once on the Real engine, the sharing a
// fleet replay relies on when it resolves each app once. Under -race it
// checks that sessions only draw their own tasks from the shared
// application and its immutable model.
func TestSharedAppConcurrentSessions(t *testing.T) {
	app := btapps.AlexNetSparseBatch(1)
	rt, err := New(Config{
		Device:       mustDevice(t, "pixel7a"),
		Engine:       pipeline.RealEngine{},
		BWHeadroom:   8,
		CoreHeadroom: 8,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	sessions := make([]*Session, 2)
	for i := range sessions {
		s, err := rt.Admit(app, AdmitOptions{Name: fmt.Sprintf("s%d", i), Tasks: 4, WaveTasks: 2})
		if err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		sessions[i] = s
	}
	for _, s := range sessions {
		if res := s.Wait(); res.Err != nil {
			t.Fatalf("session %s: %v", res.Name, res.Err)
		} else if res.Tasks != 4 {
			t.Fatalf("session %s ran %d tasks, want 4", res.Name, res.Tasks)
		}
	}
}

// TestDepartureReplansSurvivors: when a short session exits, the
// survivor is re-planned back against the emptier device before Wait on
// the departed session returns.
func TestDepartureReplansSurvivors(t *testing.T) {
	appA := mustApp(t, "octree")
	gate := &gatedEngine{inner: pipeline.SimEngine{}, app: appA.Name, gate: make(chan struct{})}
	rt := mustRuntime(t, Config{Device: mustDevice(t, "oneplus11"), Engine: gate})
	defer rt.Close()
	sA, err := rt.Admit(appA, AdmitOptions{Tasks: 40, WaveTasks: 4})
	if err != nil {
		t.Fatalf("Admit A: %v", err)
	}
	sB, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 16, WaveTasks: 4})
	if err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	afterAdmit := sA.Replans()
	if afterAdmit < 1 {
		t.Fatalf("survivor not re-planned on admit (replans=%d)", afterAdmit)
	}
	// Departure re-planning runs before the departing session's done
	// channel closes, so after Wait the survivor has been re-planned back
	// against the emptier device.
	sB.Wait()
	if got := sA.Replans(); got <= afterAdmit {
		t.Fatalf("survivor not re-planned on departure: replans %d -> %d", afterAdmit, got)
	}
	close(gate.gate)
	if res := sA.Wait(); res.Err != nil || res.Tasks != 40 {
		t.Fatalf("survivor did not finish cleanly: %+v", res)
	}
}
