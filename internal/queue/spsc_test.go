package queue

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestSPSCBasic(t *testing.T) {
	q := NewSPSC[int](4)
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.TryPush(99) {
		t.Fatal("push into full queue succeeded")
	}
	if q.Len() != 4 {
		t.Fatalf("Len = %d, want 4", q.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d,true", v, ok, i)
		}
	}
}

func TestSPSCCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 2}, {1, 2}, {3, 4}, {4, 4}, {5, 8}, {100, 128}} {
		if got := NewSPSC[int](c.ask).Cap(); got != c.want {
			t.Errorf("NewSPSC(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

func TestSPSCWraparound(t *testing.T) {
	q := NewSPSC[int](2)
	// Cycle many times through a tiny ring to exercise index wrap.
	for i := 0; i < 1000; i++ {
		if !q.TryPush(i) {
			t.Fatalf("push %d failed", i)
		}
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("cycle %d: pop = %d,%v", i, v, ok)
		}
	}
}

// TestSPSCConcurrentFIFO is the core correctness test: one producer, one
// consumer, full throughput, order and completeness must be preserved.
func TestSPSCConcurrentFIFO(t *testing.T) {
	const n = 200000
	q := NewSPSC[int](64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if !q.Push(i) {
				t.Error("push failed before close")
				return
			}
		}
		q.Close()
	}()
	prev := -1
	count := 0
	for {
		v, ok := q.Pop()
		if !ok {
			break
		}
		if v != prev+1 {
			t.Fatalf("out of order: got %d after %d", v, prev)
		}
		prev = v
		count++
	}
	wg.Wait()
	if count != n {
		t.Fatalf("received %d elements, want %d", count, n)
	}
}

func TestSPSCCloseReleasesBlockedConsumer(t *testing.T) {
	q := NewSPSC[int](2)
	done := make(chan struct{})
	go func() {
		_, ok := q.Pop()
		if ok {
			t.Error("Pop on closed empty queue returned ok")
		}
		close(done)
	}()
	q.Close()
	<-done
}

func TestSPSCCloseReleasesBlockedProducer(t *testing.T) {
	q := NewSPSC[int](2)
	q.TryPush(1)
	q.TryPush(2)
	done := make(chan struct{})
	go func() {
		if q.Push(3) {
			t.Error("Push on closed full queue returned true")
		}
		close(done)
	}()
	q.Close()
	<-done
}

func TestSPSCDrainAfterClose(t *testing.T) {
	q := NewSPSC[int](4)
	q.TryPush(1)
	q.TryPush(2)
	q.Close()
	if v, ok := q.Pop(); !ok || v != 1 {
		t.Fatalf("pop after close = %d,%v", v, ok)
	}
	if v, ok := q.Pop(); !ok || v != 2 {
		t.Fatalf("pop after close = %d,%v", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on drained closed queue returned ok")
	}
}

func TestSPSCPointerRelease(t *testing.T) {
	// Popped slots must be zeroed so the queue does not pin objects.
	q := NewSPSC[*int](2)
	x := new(int)
	q.TryPush(x)
	q.TryPop()
	if q.buf[0] != nil {
		t.Error("popped slot still holds pointer")
	}
}

// Property: any interleaved sequence of pushes and pops on a single
// goroutine behaves like a FIFO list.
func TestSPSCQuickFIFOModel(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewSPSC[int](8)
		var model []int
		next := 0
		for _, push := range ops {
			if push {
				ok := q.TryPush(next)
				wantOK := len(model) < q.Cap()
				if ok != wantOK {
					return false
				}
				if ok {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.TryPop()
				wantOK := len(model) > 0
				if ok != wantOK {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRingTopology(t *testing.T) {
	r := NewRing[int](3, 4)
	if r.Edges() != 3 {
		t.Fatalf("Edges = %d", r.Edges())
	}
	// Chunk i's output edge must be chunk i+1's input edge.
	for i := 0; i < 3; i++ {
		if r.Out(i) != r.In(i+1) {
			t.Errorf("Out(%d) != In(%d)", i, i+1)
		}
	}
	// The ring must close: last chunk feeds the first.
	if r.Out(2) != r.In(0) {
		t.Error("ring does not close")
	}
}

func TestRingPrimeAndFlow(t *testing.T) {
	r := NewRing[int](2, 4)
	r.Prime([]int{10, 20, 30})
	in := r.In(0)
	if in.Len() != 3 {
		t.Fatalf("primed len = %d, want 3", in.Len())
	}
	v, ok := in.TryPop()
	if !ok || v != 10 {
		t.Fatalf("first primed element = %d,%v", v, ok)
	}
}

func TestRingPrimeOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on prime overflow")
		}
	}()
	r := NewRing[int](2, 2)
	r.Prime([]int{1, 2, 3}) // capacity 2 < 3
}

func TestRingSingleChunk(t *testing.T) {
	// A one-chunk pipeline still needs a self-loop for recycling.
	r := NewRing[int](1, 4)
	if r.In(0) != r.Out(0) {
		t.Error("single-chunk ring should self-loop")
	}
}

func TestRingClose(t *testing.T) {
	r := NewRing[int](3, 2)
	r.Close()
	for i := 0; i < 3; i++ {
		if !r.Out(i).closed.Load() {
			t.Errorf("edge %d not closed", i)
		}
	}
}

func BenchmarkSPSCPingPong(b *testing.B) {
	q := NewSPSC[int](1024)
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := q.Pop(); !ok {
				close(done)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
	}
	q.Close()
	<-done
}
