package main

import (
	"context"
	"sync"
	"testing"

	"bettertogether/pkg/bt"
)

// TestQuickstartEndToEnd runs the example's pipeline the way main does —
// auto-schedule, simulate, then execute for real — and checks the real
// run computes correct histograms: every histogram bin total must sum to
// exactly signalLen, since the kernel bins each sample exactly once.
func TestQuickstartEndToEnd(t *testing.T) {
	app := buildApp()
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := bt.AutoSchedule(app, dev)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := bt.NewPlan(app, dev, schedule)
	if err != nil {
		t.Fatal(err)
	}

	if r := (bt.SimEngine{}).Run(context.Background(), plan, bt.RunOptions{Tasks: 10, Warmup: 2, Seed: 1}); r.PerTask <= 0 {
		t.Fatalf("simulated per-task latency = %v", r.PerTask)
	}

	// Hook the final stage to validate each task's histogram in place
	// (the engine recycles TaskObjects, so outputs are only visible
	// before the task is reset for its next sequence).
	var mu sync.Mutex
	checked := 0
	last := len(app.Stages) - 1
	orig := app.Stages[last].CPU
	check := func(task *bt.TaskObject, par bt.ParallelFor) {
		orig(task, par)
		p := task.Payload.(*payload)
		var total int64
		for _, c := range p.hist.Data {
			if c < 0 {
				t.Errorf("task %d: negative bin count %d", task.Seq, c)
			}
			total += c
		}
		mu.Lock()
		if total != signalLen {
			t.Errorf("task %d: histogram sums to %d, want %d", task.Seq, total, signalLen)
		}
		checked++
		mu.Unlock()
	}
	app.Stages[last].CPU = check
	app.Stages[last].GPU = check

	const tasks = 5
	r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: tasks, Warmup: 1})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if len(r.Completions) != tasks {
		t.Fatalf("completions = %d, want %d", len(r.Completions), tasks)
	}
	if checked != tasks+1 { // warmup task also passes through the hook
		t.Fatalf("validated %d tasks, want %d", checked, tasks+1)
	}
}
