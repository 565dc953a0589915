package alexnet

import (
	"math"
	"sync"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/tensor"
)

func concPar(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func TestModelShapes(t *testing.T) {
	m := NewModel(1, 0)
	// Spatial plan: 32 -> pool -> 16 -> 8 -> 4 -> 2.
	wantH := []int{32, 16, 8, 4}
	for i, l := range m.Convs {
		if l.Spec.InH != wantH[i] || l.Spec.OutH() != wantH[i] {
			t.Errorf("conv%d spatial %d->%d, want same-pad at %d", i+1, l.Spec.InH, l.Spec.OutH(), wantH[i])
		}
		if l.Spec.OutC != channelProgression[i] {
			t.Errorf("conv%d channels = %d", i+1, l.Spec.OutC)
		}
		if err := l.Spec.Validate(); err != nil {
			t.Errorf("conv%d: %v", i+1, err)
		}
	}
	if m.FCIn != 256*2*2 {
		t.Errorf("FCIn = %d, want 1024", m.FCIn)
	}
	if m.ActSize() != 64*32*32 {
		t.Errorf("ActSize = %d, want %d", m.ActSize(), 64*32*32)
	}
	if m.ColsSize() == 0 {
		t.Error("ColsSize = 0")
	}
}

func TestModelDeterministic(t *testing.T) {
	a, b := NewModel(7, 0), NewModel(7, 0)
	for i := range a.Convs[0].W.Data {
		if a.Convs[0].W.Data[i] != b.Convs[0].W.Data[i] {
			t.Fatal("same seed, different weights")
		}
	}
	c := NewModel(8, 0)
	same := true
	for i := range a.Convs[0].W.Data {
		if a.Convs[0].W.Data[i] != c.Convs[0].W.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds, same weights")
	}
}

func TestSparseModelPruning(t *testing.T) {
	m := NewModel(1, DefaultSparsity)
	for i, l := range m.Convs {
		if l.CSR == nil {
			t.Fatalf("conv%d has no CSR weights", i+1)
		}
		if l.W != nil {
			t.Errorf("conv%d of the sparse model carries dense weights", i+1)
		}
		if err := l.CSR.Validate(); err != nil {
			t.Fatalf("conv%d CSR invalid: %v", i+1, err)
		}
		cols := l.Spec.InC * l.Spec.Kernel * l.Spec.Kernel
		keep := cols - int(math.Floor(DefaultSparsity*float64(cols)))
		want := float64(keep) / float64(cols)
		if d := float64(l.CSR.NNZ()) / float64(l.CSR.Rows*l.CSR.Cols); math.Abs(d-want) > 1e-9 {
			t.Errorf("conv%d density = %v, want %v", i+1, d, want)
		}
	}
	dense := NewModel(1, 0)
	if dense.Convs[0].CSR != nil {
		t.Error("dense model should not carry CSR weights")
	}
}

func runAll(app *core.Application, to *core.TaskObject, par core.ParallelFor, gpu bool) {
	for _, s := range app.Stages {
		if gpu {
			s.GPU(to, par)
		} else {
			s.CPU(to, par)
		}
	}
}

func TestDenseForwardDeterministicAcrossBackendsAndParallelism(t *testing.T) {
	app := NewDense(3, 1)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	t1 := app.NewTask()
	runAll(app, t1, core.SerialFor, false)
	ref := append([]float32(nil), t1.Payload.(*Task).Logits.Data...)

	t2 := app.NewTask()
	runAll(app, t2, concPar, true)
	got := t2.Payload.(*Task).Logits.Data
	for i := range ref {
		if math.Abs(float64(ref[i]-got[i])) > 1e-4 {
			t.Fatalf("logit %d: serial-CPU %v vs parallel-GPU %v", i, ref[i], got[i])
		}
	}
}

func TestDenseMatchesManualReference(t *testing.T) {
	// Independently compose the forward pass from tensor primitives and
	// compare against the staged pipeline.
	app := NewDense(5, 1)
	to := app.NewTask()
	task := to.Payload.(*Task)
	m := task.Model

	cur := tensor.FromSlice(append([]float32(nil), task.Input.Data...), InputC, InputH, InputW)
	for i := 0; i < 4; i++ {
		spec := m.Convs[i].Spec
		conv := tensor.New(spec.OutC, spec.OutH(), spec.OutW())
		tensor.Conv2D(spec, conv, cur, m.Convs[i].W, m.Convs[i].Bias)
		tensor.ReLU(conv, 0, conv.Len())
		p := m.Pools[i]
		pooled := tensor.New(p.C, p.OutH(), p.OutW())
		tensor.MaxPool2D(p, pooled, conv)
		cur = pooled
	}
	want := make([]float32, Classes)
	tensor.Linear(want, cur.Data, m.FCW, m.FCB, Classes, m.FCIn)

	runAll(app, to, concPar, false)
	for i := range want {
		if math.Abs(float64(want[i]-task.Logits.Data[i])) > 1e-3 {
			t.Fatalf("logit %d: pipeline %v vs reference %v", i, task.Logits.Data[i], want[i])
		}
	}
}

func TestSparseMatchesDenseWithPrunedWeights(t *testing.T) {
	// The CSR convolution must agree exactly with a dense convolution
	// using the pruned weight tensor.
	const seed = 11
	sparseApp := NewSparse(seed, 2)
	to := sparseApp.NewTask()
	task := to.Payload.(*Task)
	m := task.Model
	runAll(sparseApp, to, concPar, false)
	got := append([]float32(nil), task.Logits.Data...)

	// Dense reference with the same pruned weights.
	for b := 0; b < task.B; b++ {
		in := task.Input.Data[b*InputC*InputH*InputW : (b+1)*InputC*InputH*InputW]
		cur := tensor.FromSlice(append([]float32(nil), in...), InputC, InputH, InputW)
		for i := 0; i < 4; i++ {
			spec := m.Convs[i].Spec
			w := m.Convs[i].CSR
			pruned := tensor.New(spec.OutC, spec.InC, spec.Kernel, spec.Kernel)
			for r := 0; r < w.Rows; r++ {
				for p := w.RowPtr[r]; p < w.RowPtr[r+1]; p++ {
					pruned.Data[r*w.Cols+int(w.Col[p])] = w.Val[p]
				}
			}
			conv := tensor.New(spec.OutC, spec.OutH(), spec.OutW())
			tensor.Conv2D(spec, conv, cur, pruned, m.Convs[i].Bias)
			tensor.ReLU(conv, 0, conv.Len())
			p := m.Pools[i]
			pooled := tensor.New(p.C, p.OutH(), p.OutW())
			tensor.MaxPool2D(p, pooled, conv)
			cur = pooled
		}
		want := make([]float32, Classes)
		tensor.Linear(want, cur.Data, m.FCW, m.FCB, Classes, m.FCIn)
		for i := range want {
			if math.Abs(float64(want[i]-got[b*Classes+i])) > 1e-3 {
				t.Fatalf("image %d logit %d: sparse %v vs pruned-dense %v",
					b, i, got[b*Classes+i], want[i])
			}
		}
	}
}

func TestTaskRecycling(t *testing.T) {
	app := NewDense(1, 1)
	to := app.NewTask()
	runAll(app, to, core.SerialFor, false)
	first := append([]float32(nil), to.Payload.(*Task).Logits.Data...)

	to.Reset(1) // new input
	runAll(app, to, core.SerialFor, false)
	second := append([]float32(nil), to.Payload.(*Task).Logits.Data...)
	diff := false
	for i := range first {
		if first[i] != second[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different stream inputs gave identical logits")
	}

	// Resetting back to seq 0 must reproduce the first output exactly.
	to.Reset(0)
	runAll(app, to, core.SerialFor, false)
	for i := range first {
		if first[i] != to.Payload.(*Task).Logits.Data[i] {
			t.Fatal("recycled task not deterministic")
		}
	}
}

func TestCostSpecsValid(t *testing.T) {
	for _, app := range []*core.Application{NewDense(1, 1), NewSparse(1, 4)} {
		if len(app.Stages) != 9 {
			t.Fatalf("%s: %d stages", app.Name, len(app.Stages))
		}
		for i, s := range app.Stages {
			if err := s.Cost.Validate(); err != nil {
				t.Errorf("%s stage %d: %v", app.Name, i, err)
			}
			if s.Cost.FLOPs <= 0 {
				t.Errorf("%s stage %d: no work", app.Name, i)
			}
		}
	}
}

func TestSparseCheaperThanDensePerImage(t *testing.T) {
	dense := NewDense(1, 1)
	sparsed := NewSparse(1, 1)
	var dFlops, sFlops float64
	for i := 0; i < 9; i++ {
		dFlops += dense.Stages[i].Cost.FLOPs
		sFlops += sparsed.Stages[i].Cost.FLOPs
	}
	if sFlops >= dFlops {
		t.Errorf("sparse per-image FLOPs %g !< dense %g", sFlops, dFlops)
	}
	// Convolution stages must carry the irregularity marker.
	if sparsed.Stages[0].Cost.Irregularity <= dense.Stages[0].Cost.Irregularity {
		t.Error("sparse conv should be more irregular than dense conv")
	}
	// Pooling stays regular in both.
	if sparsed.Stages[1].Cost.Irregularity != dense.Stages[1].Cost.Irregularity {
		t.Error("pool cost should be unchanged by pruning")
	}
}

func TestBatchScalesCosts(t *testing.T) {
	b1 := NewSparse(1, 1)
	b4 := NewSparse(1, 4)
	for i := range b1.Stages {
		r := b4.Stages[i].Cost.FLOPs / b1.Stages[i].Cost.FLOPs
		if r < 3.5 || r > 4.5 {
			t.Errorf("stage %d: batch-4 flops ratio %v, want ~4", i, r)
		}
	}
}

func BenchmarkDenseForwardSerial(b *testing.B) {
	app := NewDense(1, 1)
	to := app.NewTask()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(app, to, core.SerialFor, false)
	}
}

func BenchmarkSparseForwardSerial(b *testing.B) {
	app := NewSparse(1, 1)
	to := app.NewTask()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runAll(app, to, core.SerialFor, false)
	}
}
