package des

import "testing"

func TestScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() { order = append(order, "a") })
	e.Schedule(1, func() { order = append(order, "b") })
	e.Schedule(1, func() { order = append(order, "c") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Errorf("tie order = %q, want abc", got)
	}
}

func TestNowAdvancesDuringCallbacks(t *testing.T) {
	e := New()
	var seen []float64
	e.Schedule(5, func() {
		seen = append(seen, e.Now())
		e.Schedule(2, func() { seen = append(seen, e.Now()) })
	})
	e.Run()
	if len(seen) != 2 || seen[0] != 5 || seen[1] != 7 {
		t.Errorf("times = %v, want [5 7]", seen)
	}
}

func TestZeroDelayRunsAfterCurrentEvents(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() {
		e.Schedule(0, func() { order = append(order, "child") })
		order = append(order, "parent")
	})
	e.Schedule(1, func() { order = append(order, "sibling") })
	e.Run()
	want := []string{"parent", "sibling", "child"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestAtInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		e.At(3, func() {})
	})
	e.Run()
}

func TestStepAndPending(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty engine should be false")
	}
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() || e.Now() != 1 || e.Pending() != 1 {
		t.Error("Step did not consume earliest event")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		e.Schedule(tt, func() { fired = append(fired, tt) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 || e.Now() != 2.5 {
		t.Errorf("fired = %v, now = %v", fired, e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("remaining events lost: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("idle RunUntil now = %v", e.Now())
	}
}

// TestSimulatedPipeline models a tiny 2-station pipeline entirely in
// events and checks the steady-state period equals the bottleneck time —
// the identity the scheduling model relies on.
func TestSimulatedPipeline(t *testing.T) {
	e := New()
	const tasks = 10
	const s1, s2 = 1.0, 3.0 // service times; station 2 is the bottleneck
	var s2FreeAt float64
	var completions []float64
	for i := 0; i < tasks; i++ {
		i := i
		// Station 1 is never starved; it emits task i at (i+1)*s1.
		e.At(float64(i+1)*s1, func() {
			start := e.Now()
			if s2FreeAt > start {
				start = s2FreeAt
			}
			s2FreeAt = start + s2
			e.At(s2FreeAt, func() { completions = append(completions, e.Now()) })
		})
	}
	e.Run()
	if len(completions) != tasks {
		t.Fatalf("completed %d tasks", len(completions))
	}
	// After warmup the inter-completion gap must equal the bottleneck.
	for i := 2; i < tasks; i++ {
		gap := completions[i] - completions[i-1]
		if gap != s2 {
			t.Errorf("gap %d = %v, want %v", i, gap, s2)
		}
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var pump func()
	n := 0
	pump = func() {
		n++
		if n < b.N {
			e.Schedule(1, pump)
		}
	}
	e.Schedule(1, pump)
	b.ResetTimer()
	e.Run()
}

// TestPriorityOrdersWithinTimestamp pins AtPrio's contract: among events
// sharing a timestamp, lower priorities run first regardless of schedule
// order, and schedule order still breaks ties within one priority.
func TestPriorityOrdersWithinTimestamp(t *testing.T) {
	e := New()
	var order []string
	e.AtPrio(1, 2, func() { order = append(order, "arrival-a") })
	e.AtPrio(1, 0, func() { order = append(order, "depart-a") })
	e.AtPrio(1, 2, func() { order = append(order, "arrival-b") })
	e.AtPrio(1, 1, func() { order = append(order, "control") })
	e.AtPrio(1, 0, func() { order = append(order, "depart-b") })
	e.Run()
	want := []string{"depart-a", "depart-b", "control", "arrival-a", "arrival-b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestPriorityDoesNotCrossTimestamps pins that time always dominates
// priority: a low-priority event at an earlier time runs before a
// high-priority event at a later one.
func TestPriorityDoesNotCrossTimestamps(t *testing.T) {
	e := New()
	var order []string
	e.AtPrio(2, -5, func() { order = append(order, "late-urgent") })
	e.AtPrio(1, 5, func() { order = append(order, "early-lazy") })
	e.Run()
	if order[0] != "early-lazy" || order[1] != "late-urgent" {
		t.Fatalf("order = %v", order)
	}
}

// TestDefaultPriorityIsZero pins that At and Schedule interleave with
// explicit priority 0 events purely by schedule order — existing callers
// see no behavior change from the priority extension.
func TestDefaultPriorityIsZero(t *testing.T) {
	e := New()
	var order []int
	e.At(1, func() { order = append(order, 1) })
	e.AtPrio(1, 0, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 3) })
	e.Run()
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

// TestAtPrioInPastPanics pins the shared past-scheduling guard.
func TestAtPrioInPastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		e.AtPrio(3, -1, func() {})
	})
	e.Run()
}
