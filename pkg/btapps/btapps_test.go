package btapps

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"bettertogether/internal/apps/alexnet"
	"bettertogether/internal/apps/octree"
	"bettertogether/internal/apps/vision"
	"bettertogether/pkg/bt"
)

func TestByNameAndAliases(t *testing.T) {
	for _, name := range Names {
		app, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if len(app.Stages) == 0 {
			t.Fatalf("%q has no stages", name)
		}
	}
	for alias, want := range map[string]string{
		"dense": "alexnet-dense", "sparse": "alexnet-sparse",
		"tree": "octree-uniform", "camera": "vision", "SPARSE": "alexnet-sparse",
	} {
		app, err := ByName(alias)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if app.Name != want {
			t.Errorf("alias %q resolved to %q, want %q", alias, app.Name, want)
		}
	}
	if _, err := ByName("nonesuch"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown app error = %v", err)
	}
}

func TestOctreeSizedDistributions(t *testing.T) {
	for _, d := range []string{"", "uniform", "clustered", "surface"} {
		if _, err := OctreeSized(1024, d); err != nil {
			t.Errorf("distribution %q: %v", d, err)
		}
	}
	if _, err := OctreeSized(1024, "donut"); err == nil {
		t.Error("unknown distribution accepted")
	}
}

// validateOutput checks one completed task's output for each workload:
// the pipeline must produce a structurally valid result, not just
// terminate.
func validateOutput(t *testing.T, appName string, task *bt.TaskObject) {
	t.Helper()
	switch p := task.Payload.(type) {
	case *octree.Task:
		if p.TotalNodes <= 0 || len(p.Result.Nodes) == 0 {
			t.Errorf("octree task %d: empty octree (total=%d)", task.Seq, p.TotalNodes)
			return
		}
		if p.Result.Root < 0 || int(p.Result.Root) >= len(p.Result.Nodes) {
			t.Errorf("octree task %d: root %d out of range", task.Seq, p.Result.Root)
		}
	case *alexnet.Task:
		sum := 0.0
		for _, v := range p.Logits.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Errorf("alexnet task %d: non-finite logit", task.Seq)
				return
			}
			sum += math.Abs(float64(v))
		}
		if sum == 0 {
			t.Errorf("alexnet task %d: all-zero logits", task.Seq)
		}
	default:
		vt := vision.Unwrap(task.Payload)
		if len(vt.Out.Data) != (vt.W/2)*(vt.H/2) {
			t.Errorf("vision task %d: output size %d", task.Seq, len(vt.Out.Data))
			return
		}
		sum := 0.0
		for _, v := range vt.Out.Data {
			sum += math.Abs(float64(v))
		}
		if sum == 0 {
			t.Errorf("vision task %d: all-zero output frame", task.Seq)
		}
	}
}

// TestAppsEndToEndRealRun is the smoke test for every workload: build the
// app, compile a heterogeneous plan, run the real concurrent engine, and
// validate each completed task's output via a final-stage hook (the
// engine owns its TaskObjects, so the hook is where outputs are visible).
func TestAppsEndToEndRealRun(t *testing.T) {
	dev, err := bt.DeviceByName("pixel7a")
	if err != nil {
		t.Fatal(err)
	}
	builds := []struct {
		name string
		mk   func() (*bt.Application, error)
	}{
		{"alexnet-sparse", func() (*bt.Application, error) { return AlexNetSparseBatch(1), nil }},
		{"octree", func() (*bt.Application, error) { return OctreeSized(2048, "uniform") }},
		{"vision", func() (*bt.Application, error) { return VisionSized(64, 48) }},
		{"alexnet-dense", func() (*bt.Application, error) { return AlexNetDense(), nil }},
	}
	for _, b := range builds {
		b := b
		t.Run(b.name, func(t *testing.T) {
			app, err := b.mk()
			if err != nil {
				t.Fatal(err)
			}
			// Hook the last stage to validate every task's output.
			var mu sync.Mutex
			validated := 0
			last := len(app.Stages) - 1
			hook := func(orig bt.KernelFunc) bt.KernelFunc {
				return func(task *bt.TaskObject, par bt.ParallelFor) {
					orig(task, par)
					mu.Lock()
					validateOutput(t, app.Name, task)
					validated++
					mu.Unlock()
				}
			}
			app.Stages[last].CPU = hook(app.Stages[last].CPU)
			app.Stages[last].GPU = hook(app.Stages[last].GPU)

			// Split stages across two classes so the run exercises real
			// chunk-to-chunk queue traffic.
			n := len(app.Stages)
			assign := make([]bt.PUClass, n)
			for i := range assign {
				if i < n/2 {
					assign[i] = bt.ClassBig
				} else {
					assign[i] = bt.ClassGPU
				}
			}
			plan, err := bt.NewPlan(app, dev, bt.Schedule{Assign: assign})
			if err != nil {
				t.Fatal(err)
			}
			tasks := 3
			if b.name == "alexnet-dense" {
				tasks = 2 // heaviest workload
			}
			r := bt.RealEngine{}.Run(context.Background(), plan, bt.RunOptions{Tasks: tasks, Warmup: 0})
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if len(r.Completions) != tasks {
				t.Fatalf("completions = %d, want %d", len(r.Completions), tasks)
			}
			if validated != tasks {
				t.Fatalf("validated %d tasks, want %d", validated, tasks)
			}
		})
	}
}
