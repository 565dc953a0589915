package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/onlineprof"
	"bettertogether/internal/pipeline"
)

// feedbackConfig is the low-floor estimator tuning the integration
// tests use: short sessions must be able to accumulate enough samples
// per wave to latch.
var feedbackConfig = onlineprof.Config{MinSamples: 3, Hysteresis: 2}

// TestZeroErrorZeroDriftReplans is the property the drift detector is
// gated on: with NO injected modeling error, the model the planner
// solved with matches what the simulator executes (same interference
// model on both sides), so the feedback loop must observe plenty and
// re-plan never. A false positive here means the threshold/hysteresis
// floors are not doing their job.
func TestZeroErrorZeroDriftReplans(t *testing.T) {
	rt, err := New(Config{Device: mustDevice(t, "pixel7a"), OnlineProf: &feedbackConfig})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	for i, name := range []string{"octree", "alexnet-sparse"} {
		if _, err := rt.Admit(mustApp(t, name), AdmitOptions{
			Tasks: 24, WaveTasks: 6, Seed: int64(i) * 101,
		}); err != nil {
			t.Fatalf("Admit %s: %v", name, err)
		}
	}
	rt.Wait()
	s, ok := rt.OnlineProfStats()
	if !ok {
		t.Fatal("online profiling is off")
	}
	if s.Observations == 0 {
		t.Error("estimator ingested no observations")
	}
	if got := rt.ReplansFromDrift(); got != 0 {
		t.Errorf("accurate model triggered %d drift re-plans, want 0 (stats %+v)", got, s)
	}
	if s.DriftsTriggered != 0 {
		t.Errorf("accurate model latched %d drifts, want 0", s.DriftsTriggered)
	}
}

// TestInjectedErrorTriggersDriftReplan drives the full feedback loop:
// a model adjustment halves every estimate the planner sees, so the
// simulator's observed service times run 2x the registered model, the
// estimator latches drift, and the wave boundary re-plans with the
// learned ~2x correction overlaid.
func TestInjectedErrorTriggersDriftReplan(t *testing.T) {
	stream := obs.NewStream(obs.DefaultStreamCapacity)
	rt, err := New(Config{
		Device:            mustDevice(t, "pixel7a"),
		Events:            stream,
		OnlineProf:        &feedbackConfig,
		ModelAdjustDigest: "half",
		ModelAdjust: func(_ string, _ core.PUClass, sec float64) float64 {
			return sec * 0.5
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 40, WaveTasks: 5})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res := s.Wait(); res.Err != nil {
		t.Fatalf("session: %v", res.Err)
	}
	if got := rt.ReplansFromDrift(); got < 1 {
		st, _ := rt.OnlineProfStats()
		t.Fatalf("ReplansFromDrift = %d, want >= 1 (stats %+v)", got, st)
	}
	// The learned correction must roughly undo the injected halving.
	adjust, _ := rt.OnlineProfiler().LearnedAdjust()
	if adjust == nil {
		t.Fatal("drift latched but no learned correction was recorded")
	}
	found := false
	for _, stage := range s.App().Stages {
		for i := range rt.Device().PUs {
			if r := adjust(stage.Name, rt.Device().PUs[i].Class, 1); r != 1 {
				found = true
				if r < 1.5 || r > 2.6 {
					t.Errorf("learned ratio %s/%s = %.3f, want ~2 (undoing the 0.5x injection)",
						stage.Name, rt.Device().PUs[i].Class, r)
				}
			}
		}
	}
	if !found {
		t.Error("drift latched but no learned ratio was recorded")
	}
	// A KindDriftReplan event must have landed on the caller's stream
	// (the estimator is teed in behind it).
	seen := false
	for _, e := range stream.Recent(stream.Capacity()) {
		if e.Kind == obs.KindDriftReplan {
			seen = true
		}
	}
	if !seen {
		t.Error("no drift-replan event on the stream")
	}
}

// TestPinnedSessionNeverDriftReplans pins the contract that an
// explicitly scheduled session is exempt from feedback replanning no
// matter how wrong the model is.
func TestPinnedSessionNeverDriftReplans(t *testing.T) {
	app := mustApp(t, "octree")
	pin := core.NewUniformSchedule(len(app.Stages), core.ClassBig)
	rt, err := New(Config{
		Device:            mustDevice(t, "pixel7a"),
		OnlineProf:        &feedbackConfig,
		ModelAdjustDigest: "half",
		ModelAdjust: func(_ string, _ core.PUClass, sec float64) float64 {
			return sec * 0.5
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	s, err := rt.Admit(app, AdmitOptions{Tasks: 30, WaveTasks: 5, Schedule: &pin})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if res := s.Wait(); res.Err != nil {
		t.Fatalf("session: %v", res.Err)
	}
	if got := rt.ReplansFromDrift(); got != 0 {
		t.Errorf("pinned session drift-replanned %d times, want 0", got)
	}
	if s.Schedule().String() != pin.String() {
		t.Errorf("pinned schedule changed: %s", s.Schedule())
	}
}

// TestFeedbackUnderChurn churns admissions and departures with the
// feedback loop live — the estimator ingests concurrently with model
// registration and removal. Run under -race this is the data-race
// canary for the online-profiling plumbing.
func TestFeedbackUnderChurn(t *testing.T) {
	stream := obs.NewStream(obs.DefaultStreamCapacity)
	rt, err := New(Config{
		Device:       mustDevice(t, "pixel7a"),
		Events:       stream,
		BWHeadroom:   8,
		CoreHeadroom: 8,
		OnlineProf:   &feedbackConfig,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				name := []string{"octree", "alexnet-sparse"}[(w+round)%2]
				s, err := rt.Admit(mustApp(t, name), AdmitOptions{
					Name:  fmt.Sprintf("%s-w%d-r%d", name, w, round),
					Tasks: 8, WaveTasks: 4, Seed: int64(w) * 17,
				})
				if err != nil {
					continue // admission races are expected under churn
				}
				if res := s.Wait(); res.Err != nil {
					t.Errorf("session %s: %v", res.Name, res.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s, ok := rt.OnlineProfStats()
	if !ok {
		t.Fatal("online profiling is off")
	}
	if s.Observations == 0 {
		t.Error("no observations ingested under churn")
	}
}

// stageDoneCounter is a caller-owned sink that counts StageDone events.
type stageDoneCounter struct{ n atomic.Uint64 }

func (c *stageDoneCounter) Emit(e obs.Event) {
	if e.Kind == obs.KindStageDone {
		c.n.Add(1)
	}
}

// TestEstimatorCountsEveryStageDone pins inline ingestion: the estimator
// sits behind the caller's sink, so once Session.Wait returns it has
// folded exactly the StageDone events the caller's sink saw — on every
// run, not eventually.
func TestEstimatorCountsEveryStageDone(t *testing.T) {
	for run := 0; run < 20; run++ {
		counter := &stageDoneCounter{}
		rt, err := New(Config{
			Device:            mustDevice(t, "pixel7a"),
			Events:            counter,
			OnlineProf:        &feedbackConfig,
			ModelAdjustDigest: "half",
			ModelAdjust: func(_ string, _ core.PUClass, sec float64) float64 {
				return sec * 0.5
			},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s, err := rt.Admit(mustApp(t, "octree"), AdmitOptions{Tasks: 20, WaveTasks: 5})
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		if res := s.Wait(); res.Err != nil {
			t.Fatalf("session: %v", res.Err)
		}
		st, _ := rt.OnlineProfStats()
		rt.Close()
		if want := counter.n.Load(); st.Observations != want || want == 0 {
			t.Fatalf("run %d: estimator counted %d observations, sink saw %d stage-done events",
				run, st.Observations, want)
		}
	}
}

// TestFeedbackOnRealEngine runs the feedback loop on the Real engine,
// where the estimator ingests on the engine's dispatcher goroutines, with
// two sessions executing concurrently. Under -race this is the data-race
// check for inline ingestion.
func TestFeedbackOnRealEngine(t *testing.T) {
	counter := &stageDoneCounter{}
	rt, err := New(Config{
		Device:       mustDevice(t, "pixel7a"),
		Engine:       pipeline.RealEngine{},
		Events:       counter,
		BWHeadroom:   8,
		CoreHeadroom: 8,
		OnlineProf:   &feedbackConfig,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Close()
	sessions := make([]*Session, 2)
	for i, name := range []string{"octree", "vision"} {
		s, err := rt.Admit(mustApp(t, name), AdmitOptions{Tasks: 8, WaveTasks: 4})
		if err != nil {
			t.Fatalf("Admit %s: %v", name, err)
		}
		sessions[i] = s
	}
	for _, s := range sessions {
		if res := s.Wait(); res.Err != nil {
			t.Fatalf("session %s: %v", res.Name, res.Err)
		}
	}
	st, _ := rt.OnlineProfStats()
	if want := counter.n.Load(); st.Observations != want || want == 0 {
		t.Fatalf("estimator counted %d observations, sink saw %d stage-done events", st.Observations, want)
	}
}
