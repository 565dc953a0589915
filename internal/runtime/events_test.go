package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
)

func TestAdmissionErrorFormatting(t *testing.T) {
	cases := []struct {
		name string
		err  *AdmissionError
		want []string
	}{
		{
			"bandwidth",
			&AdmissionError{App: "vision", Resource: ResourceBandwidth, Demand: 42.5, Capacity: 31.25},
			[]string{`"vision"`, "dram-bandwidth", "42.50", "31.25", "rejected"},
		},
		{
			"cores",
			&AdmissionError{App: "octree", Resource: ResourceCores, Demand: 12, Capacity: 8},
			[]string{`"octree"`, "pu-cores", "12.00", "8.00"},
		},
		{
			"empty app still renders",
			&AdmissionError{Resource: ResourceCores, Demand: 1, Capacity: 0},
			[]string{`""`, "pu-cores", "1.00", "0.00"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := tc.err.Error()
			for _, want := range tc.want {
				if !strings.Contains(msg, want) {
					t.Errorf("message %q missing %q", msg, want)
				}
			}
		})
	}
}

// sessionEvents extracts the stream's retained events for one session.
func sessionEvents(s *obs.Stream, name string) []obs.Event {
	var out []obs.Event
	for _, e := range s.Recent(0) {
		if e.Session == name {
			out = append(out, e)
		}
	}
	return out
}

func TestRuntimeEmitsAdmitAndRejectEvents(t *testing.T) {
	stream := obs.NewStream(1 << 14)
	rt := mustRuntime(t, Config{Device: mustDevice(t, "jetson"), Events: stream})
	defer rt.Close()

	s, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	if err != nil {
		t.Fatalf("first vision admit should fit: %v", err)
	}
	_, err = rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("want *AdmissionError, got %v", err)
	}
	s.Wait()

	var admits, rejects []obs.Event
	for _, e := range stream.Recent(0) {
		switch e.Kind {
		case obs.KindAdmit:
			admits = append(admits, e)
		case obs.KindReject:
			rejects = append(rejects, e)
		}
	}
	if len(admits) != 1 || len(rejects) != 1 {
		t.Fatalf("admit/reject events %d/%d, want 1/1", len(admits), len(rejects))
	}
	if admits[0].Session != s.Name() || admits[0].Detail == "" {
		t.Fatalf("admit event %+v lacks session/schedule", admits[0])
	}
	if !strings.Contains(rejects[0].Detail, "rejected") {
		t.Fatalf("reject event detail %q does not carry the admission error", rejects[0].Detail)
	}
}

// TestSessionEventOrdering pins the per-session stream order: admit
// first, wave-start/wave-end brackets around each wave's engine
// run-start/run-end, and session-end strictly last.
func TestSessionEventOrdering(t *testing.T) {
	stream := obs.NewStream(1 << 15)
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), Events: stream})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 20, WaveTasks: 6})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res := s.Wait(); res.Err != nil {
		t.Fatalf("session error: %v", res.Err)
	}

	evs := sessionEvents(stream, s.Name())
	if len(evs) == 0 {
		t.Fatal("no events for the session")
	}
	if evs[0].Kind != obs.KindAdmit {
		t.Fatalf("first session event %v, want admit", evs[0].Kind)
	}
	if last := evs[len(evs)-1]; last.Kind != obs.KindSessionEnd {
		t.Fatalf("last session event %v, want session-end", last.Kind)
	}

	// 20 tasks at 6/wave = 4 waves; each bracketed and internally nested.
	counts := map[obs.Kind]int{}
	depth := 0 // wave-start..wave-end nesting, must alternate cleanly
	runOpen := false
	for _, e := range evs {
		counts[e.Kind]++
		switch e.Kind {
		case obs.KindWaveStart:
			if depth != 0 {
				t.Fatalf("wave-start inside an open wave (seq %d)", e.Seq)
			}
			depth = 1
		case obs.KindWaveEnd:
			if depth != 1 {
				t.Fatalf("wave-end without open wave (seq %d)", e.Seq)
			}
			depth = 0
		case obs.KindRunStart:
			if depth != 1 || runOpen {
				t.Fatalf("run-start outside a wave (seq %d)", e.Seq)
			}
			runOpen = true
		case obs.KindRunEnd:
			if !runOpen {
				t.Fatalf("run-end without run-start (seq %d)", e.Seq)
			}
			runOpen = false
		case obs.KindStageDone:
			if !runOpen {
				t.Fatalf("stage-done outside an engine run (seq %d)", e.Seq)
			}
		case obs.KindSessionEnd:
			if depth != 0 || runOpen {
				t.Fatal("session-end with an open wave or run")
			}
		}
	}
	if counts[obs.KindWaveStart] != 4 || counts[obs.KindWaveEnd] != 4 {
		t.Fatalf("wave brackets %d/%d, want 4/4",
			counts[obs.KindWaveStart], counts[obs.KindWaveEnd])
	}
	if counts[obs.KindRunStart] != 4 || counts[obs.KindRunEnd] != 4 {
		t.Fatalf("run brackets %d/%d, want 4/4",
			counts[obs.KindRunStart], counts[obs.KindRunEnd])
	}
	nStages := len(mustApp(t, "octree").Stages)
	if counts[obs.KindStageDone] != 20*nStages {
		t.Fatalf("stage-done %d, want %d", counts[obs.KindStageDone], 20*nStages)
	}
	if counts[obs.KindSessionEnd] != 1 {
		t.Fatalf("session-end count %d", counts[obs.KindSessionEnd])
	}
}

// TestConcurrentSessionsEventInvariants runs many sessions concurrently
// against one stream (under -race this doubles as the emission-path data
// race check) and verifies the per-session invariants survive
// interleaving: one admit, one session-end ordered after every wave
// event, and balanced wave brackets.
func TestConcurrentSessionsEventInvariants(t *testing.T) {
	dev := mustDevice(t, "pixel7a")
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), dev.GPUClass())
	stream := obs.NewStream(1 << 16)
	rt := mustRuntime(t, Config{Device: dev, BWHeadroom: 1e9, CoreHeadroom: 1e9, Events: stream})
	defer rt.Close()

	const n = 6
	var wg sync.WaitGroup
	names := make([]string, n)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := rt.Admit(app, AdmitOptions{
				Name: fmt.Sprintf("oct-%d", i), Tasks: 12, WaveTasks: 4, Schedule: &pin,
			})
			if err != nil {
				t.Errorf("admit %d: %v", i, err)
				return
			}
			mu.Lock()
			names[i] = s.Name()
			mu.Unlock()
			if res := s.Wait(); res.Err != nil {
				t.Errorf("session %d: %v", i, res.Err)
			}
		}(i)
	}
	wg.Wait()

	if total := stream.Total(); total > uint64(stream.Capacity()) {
		t.Fatalf("ring wrapped after %d events; grow the test stream", total)
	}
	for _, name := range names {
		if name == "" {
			continue
		}
		evs := sessionEvents(stream, name)
		var admits, ends, waveStarts, waveEnds int
		var endSeq uint64
		for _, e := range evs {
			switch e.Kind {
			case obs.KindAdmit:
				admits++
			case obs.KindSessionEnd:
				ends++
				endSeq = e.Seq
			case obs.KindWaveStart:
				waveStarts++
			case obs.KindWaveEnd:
				waveEnds++
			}
		}
		if admits != 1 || ends != 1 {
			t.Fatalf("%s: admit/session-end %d/%d, want 1/1", name, admits, ends)
		}
		if waveStarts != 3 || waveEnds != 3 {
			t.Fatalf("%s: wave brackets %d/%d, want 3/3", name, waveStarts, waveEnds)
		}
		for _, e := range evs {
			if e.Kind != obs.KindSessionEnd && e.Seq > endSeq {
				t.Fatalf("%s: %v event (seq %d) after session-end (seq %d)",
					name, e.Kind, e.Seq, endSeq)
			}
		}
	}
}

func TestInspectorSessionTable(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a")})
	defer rt.Close()
	a, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{
		Tasks: 10, WaveTasks: 5, CollectMetrics: true, CollectTrace: true,
	})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	a.Wait()
	b, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 6, WaveTasks: 6})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	b.Wait()

	infos := rt.SessionInfos()
	if len(infos) != 2 {
		t.Fatalf("session table has %d rows, want 2", len(infos))
	}
	if infos[0].Name != a.Name() || infos[1].Name != b.Name() {
		t.Fatalf("table order %q,%q", infos[0].Name, infos[1].Name)
	}
	if infos[0].Tasks != 10 || infos[0].Schedule == "" || infos[0].PerTaskSec <= 0 {
		t.Fatalf("row aggregates %+v", infos[0])
	}
	if infos[0].Resident || infos[1].Resident {
		t.Fatal("finished sessions still marked resident")
	}

	if rt.SessionMetrics(a.Name()) == nil {
		t.Fatal("collected session has no metrics")
	}
	if rt.SessionMetrics(b.Name()) != nil {
		t.Fatal("uncollected session returned metrics")
	}
	if tl := rt.SessionTimeline(a.Name()); tl == nil || len(tl.Spans) == 0 {
		t.Fatal("collected session has no timeline")
	}
	if rt.SessionMetrics("nope") != nil || rt.SessionTimeline("nope") != nil {
		t.Fatal("unknown session name resolved")
	}

	hr := rt.AdmissionHeadroom()
	if hr.ResidentCount != 0 || hr.AdmittedTotal != 2 || hr.RejectedTotal != 0 {
		t.Fatalf("headroom counters %+v", hr)
	}
	if hr.BWCapacityGBs <= 0 || hr.CoresCapacity <= 0 {
		t.Fatalf("headroom capacities %+v", hr)
	}
	if hr.BWDemandGBs != 0 || hr.CoresDemand != 0 {
		t.Fatalf("no residents but standing demand %+v", hr)
	}
}

// TestInspectorResidentHeadroom checks the live view mid-session: a
// resident session must show up with standing demand.
func TestInspectorResidentHeadroom(t *testing.T) {
	stream := obs.NewStream(1 << 14)
	rt := mustRuntime(t, Config{Device: mustDevice(t, "pixel7a"), Events: stream})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 4000, WaveTasks: 100})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	hr := rt.AdmissionHeadroom()
	if hr.ResidentCount != 1 {
		t.Fatalf("resident count %d, want 1", hr.ResidentCount)
	}
	if hr.BWDemandGBs <= 0 || hr.CoresDemand <= 0 {
		t.Fatalf("resident session with no standing demand: %+v", hr)
	}
	infos := rt.SessionInfos()
	if len(infos) != 1 || !infos[0].Resident {
		t.Fatalf("live session not resident in table: %+v", infos)
	}
	s.Stop()
	if hr := rt.AdmissionHeadroom(); hr.ResidentCount != 0 {
		t.Fatalf("stopped session still resident: %+v", hr)
	}
}
