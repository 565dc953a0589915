package runtime

import (
	"context"
	"math"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/pipeline"
	"bettertogether/internal/soc"
)

// TestHoldDefersExecution pins the reservation contract: a held session
// occupies admission capacity immediately but runs no wave until Start.
func TestHoldDefersExecution(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "jetson")})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 4, WaveTasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if h := rt.AdmissionHeadroom(); h.ResidentCount != 1 {
		t.Fatalf("held session not resident: %d", h.ResidentCount)
	}
	// A held session starts no goroutine until Start, so no wave can
	// have run by now, however long one waits.
	if !s.Held() {
		t.Fatal("held session reports launched before Start")
	}
	if res := s.Snapshot(); res.Tasks != 0 {
		t.Fatalf("held session executed %d tasks before Start", res.Tasks)
	}
	select {
	case <-s.Done():
		t.Fatal("held session finished before Start")
	default:
	}
	s.Start()
	if res := s.Wait(); res.Err != nil || res.Tasks != 4 {
		t.Fatalf("started session: tasks=%d err=%v", res.Tasks, res.Err)
	}
}

// TestHoldStopUnwinds pins that Stop releases a never-started session
// instead of wedging: the canceled context makes the run exit residency
// immediately.
func TestHoldStopUnwinds(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "jetson")})
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 4, Hold: true})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a held session wedged")
	}
	if res := s.Snapshot(); res.Err != context.Canceled {
		t.Fatalf("stopped held session err = %v, want context.Canceled", res.Err)
	}
	if h := rt.AdmissionHeadroom(); h.ResidentCount != 0 {
		t.Fatalf("stopped held session still resident: %d", h.ResidentCount)
	}
}

// TestCloseReleasesHeldSessions pins that Runtime.Close never hangs on a
// held session.
func TestCloseReleasesHeldSessions(t *testing.T) {
	rt := mustRuntime(t, Config{Device: mustDevice(t, "jetson")})
	if _, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 4, Hold: true}); err != nil {
		t.Fatalf("Admit: %v", err)
	}
	done := make(chan struct{})
	go func() { rt.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close with a held session wedged")
	}
}

// TestHeldSessionReservesCapacity pins that held sessions participate in
// admission accounting: enough held reservations reject the next
// applicant exactly like running residents would.
func TestHeldSessionReservesCapacity(t *testing.T) {
	rt := mustRuntime(t, Config{
		Device:       mustDevice(t, "jetson"),
		BWHeadroom:   1.2, // one vision fits (~48 GB/s), two exceed it
		CoreHeadroom: 100,
	})
	defer rt.Close()
	if _, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 2, Hold: true}); err != nil {
		t.Fatalf("first Admit: %v", err)
	}
	if _, err := rt.Admit(mustApp(t, "vision"), AdmitOptions{Tasks: 2, Hold: true}); err == nil {
		t.Fatal("second vision admitted past tight headroom despite held reservation")
	}
}

// TestNaNEnvStillTriggersReplans is the replan-skip bugfix's
// runtime-level regression pin: before the Env.Delta clamp a session
// whose plan-time environment carried a NaN MemIntensity measured delta
// 0 against every future environment (NaN > d is false), so the
// ReplanDelta shortcut suppressed re-planning forever. With the clamp
// the drift is visible again and churn re-plans the resident.
func TestNaNEnvStillTriggersReplans(t *testing.T) {
	hold := &holdAllEngine{inner: pipeline.SimEngine{}, gate: make(chan struct{})}
	rt := mustRuntime(t, Config{
		Device:      mustDevice(t, "oneplus11"),
		Engine:      hold,
		ReplanDelta: 0.05, // small but real: genuine churn exceeds it
	})
	defer rt.Close()
	sA, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	if err != nil {
		t.Fatalf("Admit A: %v", err)
	}
	sB, err := rt.Admit(mustApp(t, "alexnet-sparse"), AdmitOptions{Tasks: 8, WaveTasks: 4})
	if err != nil {
		t.Fatalf("Admit B: %v", err)
	}
	// Poison A's plan-time environment the way a corrupted profile would:
	// every class it solved against now reads NaN. The class SET matches
	// the live environment exactly, so the only signal left is the
	// per-class intensity difference — which the pre-fix Delta lost
	// entirely (|NaN - x| is NaN, and NaN > d is false for every d).
	rt.mu.Lock()
	live := rt.envLocked(sA)
	maxIntensity := 0.0
	poisoned := soc.Env{}
	for c := range live {
		if v := live[c].MemIntensity; v > maxIntensity {
			maxIntensity = v
		}
		poisoned[c] = soc.Load{MemIntensity: math.NaN()}
	}
	sA.planEnv = poisoned
	// Run the churn replan pass over A alone, as an admission touching
	// only A would.
	rt.replanLocked(sB)
	rt.mu.Unlock()
	if maxIntensity < 0.05 {
		t.Fatalf("scenario too weak: live env max intensity %v below the replan delta", maxIntensity)
	}
	// A's re-plan must NOT be skipped: against the clamped baseline the
	// live intensities are a real delta. Pre-fix, the NaN baseline
	// measured delta 0 and the pass was elided.
	if skipped := rt.ReplansSkipped(); skipped != 0 {
		t.Fatalf("ReplansSkipped = %d, want 0 (NaN env suppressed A's re-plan)", skipped)
	}
	env := sA.planEnvSnapshot()
	if len(env) == 0 {
		t.Fatal("replan never landed: plan-time env still the poisoned placeholder")
	}
	for c, l := range env {
		if math.IsNaN(l.MemIntensity) {
			t.Fatalf("plan-time env still poisoned on class %s after replan", c)
		}
	}
}

// TestHoldReplayDeterministic pins the property the fleet layer builds
// on: a hold-admit-then-run-to-completion sequence yields byte-identical
// schedules and latencies across repetitions.
func TestHoldReplayDeterministic(t *testing.T) {
	type run struct {
		sched   []core.Schedule
		perTask []float64
	}
	replay := func() run {
		rt := mustRuntime(t, Config{Device: mustDevice(t, "oneplus11"), Seed: 42})
		defer rt.Close()
		var sessions []*Session
		for i, name := range []string{"octree", "alexnet-sparse"} {
			s, err := rt.Admit(mustApp(t, name), AdmitOptions{
				Tasks: 6, WaveTasks: 3, Seed: int64(i) * 17, Hold: true,
			})
			if err != nil {
				t.Fatalf("Admit %s: %v", name, err)
			}
			sessions = append(sessions, s)
		}
		var r run
		for _, s := range sessions {
			s.Start()
			res := s.Wait()
			if res.Err != nil {
				t.Fatalf("session %s: %v", res.Name, res.Err)
			}
			r.sched = append(r.sched, res.Schedule)
			r.perTask = append(r.perTask, res.PerTask)
		}
		return r
	}
	a, b := replay(), replay()
	for i := range a.sched {
		if !a.sched[i].Equal(b.sched[i]) {
			t.Fatalf("schedule %d diverged: %s vs %s", i, a.sched[i], b.sched[i])
		}
		if a.perTask[i] != b.perTask[i] {
			t.Fatalf("perTask %d diverged: %v vs %v", i, a.perTask[i], b.perTask[i])
		}
	}
}
