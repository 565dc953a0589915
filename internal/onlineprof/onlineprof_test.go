package onlineprof

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
)

// stageDone builds the estimator-facing tap event.
func stageDone(session, stage string, pu core.PUClass, seconds float64) obs.Event {
	return obs.Event{
		Kind: obs.KindStageDone, Session: session,
		Stage: stage, PU: string(pu),
		Dur: time.Duration(seconds * float64(time.Second)),
	}
}

// feed pushes n identical observations.
func feed(e *Estimator, n int, ev obs.Event) {
	for i := 0; i < n; i++ {
		e.Emit(ev)
	}
}

func testConfig() Config {
	return Config{MinSamples: 3, Hysteresis: 2, DriftThreshold: 0.25}
}

func TestDriftLatchesAfterFloorAndHysteresis(t *testing.T) {
	e := NewEstimator(testConfig())
	e.SetSessionModel("s", 1, "gpu=8", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010}})

	// Observed 2× the model. The first latch-eligible observation is
	// MinSamples (floor), and the drift needs Hysteresis consecutive
	// strikes on top of reaching the floor.
	ev := stageDone("s", "conv", core.ClassGPU, 0.020)
	feed(e, 3, ev) // floor reached, 1 strike
	if _, ok := e.TakeDrift("s"); ok {
		t.Fatal("drift latched before hysteresis")
	}
	e.Emit(ev) // strike 2 → latch
	d, ok := e.TakeDrift("s")
	if !ok {
		t.Fatal("drift did not latch")
	}
	if d.Session != "s" || d.Stage != "conv" || d.PU != core.ClassGPU || d.Gen != 1 {
		t.Fatalf("drift identity wrong: %+v", d)
	}
	if d.Ratio < 1.9 || d.Ratio > 2.1 {
		t.Fatalf("ratio %v, want ≈2 (identical samples keep the EWMA exact)", d.Ratio)
	}
	// Consumed: no duplicate report, and the latch holds the generation
	// closed so further strikes cannot re-trigger.
	if _, ok := e.TakeDrift("s"); ok {
		t.Fatal("drift reported twice")
	}
	feed(e, 10, ev)
	if _, ok := e.TakeDrift("s"); ok {
		t.Fatal("latched generation re-triggered")
	}
	if got := e.Stats().DriftsTriggered; got != 1 {
		t.Fatalf("DriftsTriggered = %d, want 1", got)
	}

	// A new generation re-arms detection.
	e.SetSessionModel("s", 2, "gpu=8", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010}})
	feed(e, 2, ev) // cell already has samples past the floor: 2 strikes suffice
	if d, ok := e.TakeDrift("s"); !ok || d.Gen != 2 {
		t.Fatalf("new generation drift = %+v ok=%v", d, ok)
	}
}

func TestAccurateModelNeverLatches(t *testing.T) {
	e := NewEstimator(testConfig())
	e.SetSessionModel("s", 1, "", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010}})
	// Within-threshold wobble: ±10% around the model.
	for i := 0; i < 50; i++ {
		sec := 0.009
		if i%2 == 0 {
			sec = 0.011
		}
		e.Emit(stageDone("s", "conv", core.ClassGPU, sec))
	}
	if _, ok := e.TakeDrift("s"); ok {
		t.Fatal("accurate model latched a drift")
	}
	s := e.Stats()
	if s.DriftsTriggered != 0 || s.LatchedCells != 0 {
		t.Fatalf("stats report drift for an accurate model: %+v", s)
	}
	if s.Observations != 50 || s.Cells != 1 {
		t.Fatalf("observations/cells = %d/%d, want 50/1", s.Observations, s.Cells)
	}
}

func TestHysteresisResetsOnRecovery(t *testing.T) {
	e := NewEstimator(Config{MinSamples: 1, Hysteresis: 3, DriftThreshold: 0.25})
	e.SetSessionModel("s", 1, "", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010}})
	// At DefaultAlpha one slow sample lifts the EWMA from the model past
	// the threshold, and one fast sample pulls it back under: the
	// smoothed estimates run 0.0136, 0.0161, 0.0116, 0.0147, 0.0169,
	// 0.0121, then 0.0151, 0.0172, 0.0186.
	slow := stageDone("s", "conv", core.ClassGPU, 0.022)
	fast := stageDone("s", "conv", core.ClassGPU, 0.001)
	e.Emit(stageDone("s", "conv", core.ClassGPU, 0.010)) // the cell starts at the model
	// Two strikes, recovery, two strikes, recovery: never latches.
	feed(e, 2, slow)
	e.Emit(fast)
	feed(e, 2, slow)
	e.Emit(fast)
	if _, ok := e.TakeDrift("s"); ok {
		t.Fatal("non-consecutive strikes latched")
	}
	feed(e, 3, slow)
	if _, ok := e.TakeDrift("s"); !ok {
		t.Fatal("three consecutive strikes did not latch")
	}
}

func TestObservationsIgnoreUnknownSessionsAndNonTaps(t *testing.T) {
	e := NewEstimator(testConfig())
	e.SetSessionModel("known", 1, "", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.01}})
	e.Emit(stageDone("ghost", "conv", core.ClassGPU, 0.02))
	e.Emit(obs.Event{Kind: obs.KindStageDone, Session: "known", Stage: "conv", Dur: time.Millisecond}) // no PU
	e.Emit(obs.Event{Kind: obs.KindWaveEnd, Session: "known"})
	e.Emit(stageDone("known", "", core.ClassGPU, 0.02)) // no stage
	if s := e.Stats(); s.Observations != 0 || s.Cells != 0 {
		t.Fatalf("non-taps counted: %+v", s)
	}
}

func TestCellsPoolByEnvSignature(t *testing.T) {
	e := NewEstimator(testConfig())
	e.SetSessionModel("a", 1, "gpu=8", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.01}})
	e.SetSessionModel("b", 1, "gpu=8", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.01}})
	e.SetSessionModel("c", 1, "big=4", []ModelCell{{Stage: "conv", PU: core.ClassGPU, Seconds: 0.01}})
	e.Emit(stageDone("a", "conv", core.ClassGPU, 0.01))
	e.Emit(stageDone("b", "conv", core.ClassGPU, 0.01))
	e.Emit(stageDone("c", "conv", core.ClassGPU, 0.01))
	if got := e.Stats().Cells; got != 2 {
		t.Fatalf("cells = %d, want 2 (a and b pool on the shared signature)", got)
	}
	if _, n := e.Estimate("conv", core.ClassGPU, "gpu=8"); n != 2 {
		t.Fatalf("pooled cell has %d samples, want 2", n)
	}
	// Session exit keeps the pooled estimate.
	e.RemoveSession("a")
	if sec, n := e.Estimate("conv", core.ClassGPU, "gpu=8"); n != 2 || sec <= 0 {
		t.Fatalf("RemoveSession dropped the pooled cell: %v/%d", sec, n)
	}
}

func TestLearnedAdjustDigestAndIdentity(t *testing.T) {
	e := NewEstimator(testConfig())
	if adj, dig := e.LearnedAdjust(); adj != nil || dig != "" {
		t.Fatal("empty estimator must return the identity (nil, \"\")")
	}
	e.SetSessionModel("s", 1, "", []ModelCell{
		{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010},
		{Stage: "fold", PU: core.ClassBig, Seconds: 0.010},
	})
	feed(e, 4, stageDone("s", "conv", core.ClassGPU, 0.020))
	adj, dig := e.LearnedAdjust()
	if adj == nil || dig == "" {
		t.Fatal("latched estimator returned identity adjust")
	}
	if !strings.Contains(dig, "conv|gpu=2.0000") {
		t.Fatalf("digest %q lacks the latched cell at fixed precision", dig)
	}
	// Latched cell rescales; every other cell is untouched.
	if got := adj("conv", core.ClassGPU, 0.010); got < 0.019 || got > 0.021 {
		t.Fatalf("latched cell adjusted to %v, want ≈0.020", got)
	}
	if got := adj("fold", core.ClassBig, 0.010); got != 0.010 {
		t.Fatalf("unlatched cell adjusted to %v, want identity", got)
	}
	// Digest is deterministic across calls.
	if _, dig2 := e.LearnedAdjust(); dig2 != dig {
		t.Fatalf("digest unstable: %q vs %q", dig2, dig)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	e := NewEstimator(Config{})
	if e.cfg.DriftThreshold != DefaultDriftThreshold ||
		e.cfg.MinSamples != DefaultMinSamples || e.cfg.Hysteresis != DefaultHysteresis {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
}

// TestConcurrentIngestionDuringChurn exercises the estimator under the
// race detector the way the runtime drives it: several emitting
// goroutines call Emit directly while sessions churn (register/remove)
// and readers snapshot stats, drift, and adjustments. Ingestion is
// inline, so once the emitters return every observation is counted.
func TestConcurrentIngestionDuringChurn(t *testing.T) {
	e := NewEstimator(Config{MinSamples: 2, Hysteresis: 2})
	const emitters, perEmitter = 4, 100

	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			session := fmt.Sprintf("s%d", g)
			for i := 0; i < perEmitter; i++ {
				e.SetSessionModel(session, int64(i), "gpu=8", []ModelCell{
					{Stage: "conv", PU: core.ClassGPU, Seconds: 0.010},
				})
				e.Emit(stageDone(session, "conv", core.ClassGPU, 0.021))
				if i%10 == 9 {
					e.TakeDrift(session)
					e.RemoveSession(session)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			e.Stats()
			e.LearnedAdjust()
			e.Estimate("conv", core.ClassGPU, "gpu=8")
		}
	}()
	wg.Wait()
	if got := e.Stats().Observations; got != emitters*perEmitter {
		t.Fatalf("estimator counted %d observations, want %d", got, emitters*perEmitter)
	}
}
