package runtime

import (
	"math"
	"strings"
	"testing"

	"bettertogether/internal/obs"
	"bettertogether/internal/obs/sessiontrace"
)

func TestAdmitRejectsBadDeadlines(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	defer rt.Close()
	app := mustApp(t, "octree")
	for _, d := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := rt.Admit(app, AdmitOptions{Tasks: 2, Deadline: d}); err == nil {
			t.Errorf("Admit accepted deadline %v", d)
		}
	}
}

func TestSLOStatsCountAttainment(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	defer rt.Close()
	app := mustApp(t, "octree")

	// A generous deadline attains; an impossible one misses.
	for _, d := range []float64{1e6, 1e-9} {
		s, err := rt.Admit(app, AdmitOptions{Tasks: 4, Deadline: d})
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		if res := s.Wait(); res.Err != nil {
			t.Fatalf("session: %v", res.Err)
		}
	}
	// A deadline-free session contributes nothing.
	s, err := rt.Admit(app, AdmitOptions{Tasks: 4})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	s.Wait()

	stats, ok := rt.SLOStats()
	if !ok {
		t.Fatal("SLOStats reported disabled after deadline-carrying sessions")
	}
	if stats.Sessions != 2 || stats.Attained != 1 || stats.Missed != 1 {
		t.Fatalf("SLO counters %+v, want 2 sessions, 1 attained, 1 missed", stats)
	}
	if stats.Latency == nil || stats.Latency.Count() != 2 {
		t.Fatalf("latency histogram missing observations: %+v", stats.Latency)
	}
}

func TestSLOStatsDisabledWithoutDeadlines(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 2})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	s.Wait()
	if _, ok := rt.SLOStats(); ok {
		t.Fatal("SLOStats enabled without any deadline-carrying session")
	}
}

func TestWithSessionTraceFeedsTracer(t *testing.T) {
	tracer := sessiontrace.New(sessiontrace.Config{SampleRate: 1, Seed: 1})
	rt, err := New(Config{Device: mustDevice(t, "pixel7a"), Trace: tracer})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Name: "octree#0", Tasks: 4, Deadline: 1e6})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res := s.Wait(); res.Err != nil {
		t.Fatalf("session: %v", res.Err)
	}

	doc, ok := tracer.Trace("octree#0")
	if !ok {
		t.Fatal("runtime admission recorded no trace")
	}
	if doc.Verdict != sessiontrace.VerdictAttained {
		t.Fatalf("verdict %q, want attained", doc.Verdict)
	}
	kinds := map[string]int{}
	for _, sp := range doc.Spans {
		kinds[sp.Kind]++
	}
	if kinds[sessiontrace.KindAdmit] != 1 {
		t.Fatalf("admit spans %d in %v", kinds[sessiontrace.KindAdmit], kinds)
	}
	if kinds[sessiontrace.KindWave] == 0 {
		t.Fatalf("no wave spans recorded: %v", kinds)
	}
	if doc.Elapsed <= 0 || doc.Deadline != 1e6 {
		t.Fatalf("doc elapsed/deadline %v/%v", doc.Elapsed, doc.Deadline)
	}
}

func TestSessionEndEventCarriesSLODetail(t *testing.T) {
	stream := obs.NewStream(64)
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), Events: stream})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 2, Deadline: 1e6})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	s.Wait()
	found := false
	for _, e := range stream.Recent(0) {
		if e.Kind == obs.KindSessionEnd {
			found = true
			if !strings.Contains(e.Detail, "slo attained") || !strings.Contains(e.Detail, "deadline") {
				t.Fatalf("session-end detail %q lacks SLO annotation", e.Detail)
			}
			if e.Dur <= 0 {
				t.Fatalf("session-end Dur %v, want the session's elapsed", e.Dur)
			}
		}
	}
	if !found {
		t.Fatal("no session-end event observed")
	}
}
