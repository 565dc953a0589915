package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// TestSPSCQuickConcurrentTryPush is the property test for the
// non-blocking path: a producer driving TryPush and a consumer driving
// TryPop, both with randomized yield patterns, must preserve FIFO order
// and neither lose nor duplicate a single element, for any queue
// capacity and item count.
func TestSPSCQuickConcurrentTryPush(t *testing.T) {
	f := func(capRaw uint8, nRaw uint16, prodYields, consYields []bool) bool {
		capacity := int(capRaw%32) + 1
		n := int(nRaw%2000) + 1
		q := NewSPSC[int](capacity)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; {
				if q.TryPush(i) {
					i++
				} else {
					runtime.Gosched()
				}
				if len(prodYields) > 0 && prodYields[i%len(prodYields)] {
					runtime.Gosched()
				}
			}
			q.Close()
		}()
		next := 0
		for {
			v, ok := q.TryPop()
			if !ok {
				if q.closed.Load() {
					// Drain: a final element may land between TryPop
					// and the closed check.
					if v, ok := q.TryPop(); ok {
						if v != next {
							return false
						}
						next++
						continue
					}
					break
				}
				runtime.Gosched()
				continue
			}
			if v != next {
				return false // lost, duplicated, or reordered
			}
			next++
			if len(consYields) > 0 && consYields[next%len(consYields)] {
				runtime.Gosched()
			}
		}
		wg.Wait()
		return next == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSPSCOccupancy(t *testing.T) {
	q := NewSPSC[int](4)
	if l, c := q.Len(), q.Cap(); l != 0 || c != 4 {
		t.Fatalf("occupancy = %d/%d", l, c)
	}
	q.TryPush(1)
	q.TryPush(2)
	if l, c := q.Len(), q.Cap(); l != 2 || c != 4 {
		t.Fatalf("occupancy = %d/%d", l, c)
	}
}

func TestRingOccupancy(t *testing.T) {
	r := NewRing[int](3, 4)
	r.Prime([]int{1, 2, 3})
	occ := make([]int, r.Edges())
	for i := range occ {
		occ[i] = r.Out(i).Len()
	}
	// Prime fills chunk 0's input edge, which is the last edge.
	if occ[2] != 3 || occ[0] != 0 || occ[1] != 0 {
		t.Fatalf("occupancy = %v", occ)
	}
}
