package experiments

import "testing"

// TestDriftConvergenceDefaults pins the drift experiment's acceptance
// contract end-to-end on the canonical config:
//
//   - the oracle (zero-injected-error) run never drift-replans — the
//     feedback loop is quiet when the model is right;
//   - the distorted run initially picks a wrong schedule, detects the
//     drift at least once, and converges to the oracle schedule;
//   - the whole experiment is deterministic: two runs of the same
//     config produce identical results and identical report bodies.
func TestDriftConvergenceDefaults(t *testing.T) {
	res, body, err := DriftConvergence(1)
	if err != nil {
		t.Fatalf("DriftConvergence: %v", err)
	}
	if res.Oracle.DriftReplans != 0 {
		t.Errorf("oracle run drift-replanned %d times, want 0", res.Oracle.DriftReplans)
	}
	if res.Oracle.Stats.DriftsTriggered != 0 {
		t.Errorf("oracle run latched %d drifts, want 0", res.Oracle.Stats.DriftsTriggered)
	}
	if res.Oracle.Stats.Observations == 0 {
		t.Error("oracle run ingested no observations — the feedback loop was not live")
	}
	if res.Distorted.Initial == res.Oracle.Final {
		t.Errorf("injection did not bias planning: distorted initial %s equals oracle %s",
			res.Distorted.Initial, res.Oracle.Final)
	}
	if res.Distorted.DriftReplans < 1 {
		t.Errorf("distorted run drift-replanned %d times, want >= 1 (stats %+v)",
			res.Distorted.DriftReplans, res.Distorted.Stats)
	}
	if !res.Converged {
		t.Errorf("distorted run did not converge: final %s, oracle %s",
			res.Distorted.Final, res.Oracle.Final)
	}

	res2, body2, err := DriftConvergence(1)
	if err != nil {
		t.Fatalf("second DriftConvergence: %v", err)
	}
	if res != res2 {
		t.Errorf("nondeterministic result:\n  first  %+v\n  second %+v", res, res2)
	}
	if body != body2 {
		t.Error("nondeterministic report body")
	}
}

// TestDriftConvergenceSeedStability runs a second seed: the specific
// schedules may differ, but the contract (quiet oracle, detected and
// corrected distortion) must hold — drift detection is not tuned to a
// single noise stream.
func TestDriftConvergenceSeedStability(t *testing.T) {
	res, _, err := DriftConvergence(42)
	if err != nil {
		t.Fatalf("DriftConvergence: %v", err)
	}
	if res.Oracle.DriftReplans != 0 {
		t.Errorf("oracle run drift-replanned %d times, want 0", res.Oracle.DriftReplans)
	}
	if res.Distorted.DriftReplans < 1 {
		t.Errorf("distorted run drift-replanned %d times, want >= 1", res.Distorted.DriftReplans)
	}
	if !res.Converged {
		t.Errorf("distorted run did not converge: final %s, oracle %s",
			res.Distorted.Final, res.Oracle.Final)
	}
}
