package obs

import (
	"sync"
	"testing"
	"time"
)

func TestStreamAssignsSeqAndWall(t *testing.T) {
	s := NewStream(8)
	before := time.Now()
	s.Emit(Event{Kind: KindAdmit, Session: "a"})
	s.Emit(Event{Kind: KindReplan, Session: "a"})
	got := s.Recent(0)
	if len(got) != 2 {
		t.Fatalf("Recent returned %d events, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs %d,%d want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].Wall.Before(before) {
		t.Fatalf("wall time %v predates emission", got[0].Wall)
	}
	if got[0].Kind != KindAdmit || got[1].Kind != KindReplan {
		t.Fatalf("kinds %v,%v", got[0].Kind, got[1].Kind)
	}
	if s.Total() != 2 {
		t.Fatalf("Total %d want 2", s.Total())
	}
}

func TestStreamRingKeepsMostRecent(t *testing.T) {
	s := NewStream(4)
	for i := 0; i < 10; i++ {
		s.Emit(Event{Kind: KindStageDone, Task: i})
	}
	got := s.Recent(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	for i, e := range got {
		if want := 6 + i; e.Task != want {
			t.Fatalf("event %d has task %d, want %d (oldest-first)", i, e.Task, want)
		}
	}
	// A limited read returns the newest suffix.
	got = s.Recent(2)
	if len(got) != 2 || got[0].Task != 8 || got[1].Task != 9 {
		t.Fatalf("Recent(2) = %+v, want tasks 8,9", got)
	}
}

func TestNilStreamIsInert(t *testing.T) {
	var s *Stream
	s.Emit(Event{Kind: KindAdmit}) // must not panic
	if s.Recent(5) != nil {
		t.Fatal("nil stream returned events")
	}
	if s.Total() != 0 || s.Capacity() != 0 {
		t.Fatal("nil stream reported non-zero counters")
	}
	if WithSession(nil, "x") != nil {
		t.Fatal("WithSession(nil) must stay nil so emitters keep their nil check")
	}
}

func TestWithSessionTagsUntaggedEvents(t *testing.T) {
	s := NewStream(8)
	sink := WithSession(s, "octree#0")
	sink.Emit(Event{Kind: KindStageDone})
	sink.Emit(Event{Kind: KindStageDone, Session: "explicit"})
	got := s.Recent(0)
	if got[0].Session != "octree#0" {
		t.Fatalf("untagged event has session %q", got[0].Session)
	}
	if got[1].Session != "explicit" {
		t.Fatalf("pre-tagged event was overwritten: %q", got[1].Session)
	}
}

func TestStreamConcurrentEmitAndRead(t *testing.T) {
	s := NewStream(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Emit(Event{Kind: KindStageDone, Chunk: g, Task: i})
				if i%32 == 0 {
					s.Recent(8)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Total(); got != 8*200 {
		t.Fatalf("Total %d want %d", got, 8*200)
	}
	// Seqs in the ring must be contiguous and end at Total.
	recent := s.Recent(0)
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq != recent[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs %d → %d", recent[i-1].Seq, recent[i].Seq)
		}
	}
	if last := recent[len(recent)-1].Seq; last != s.Total() {
		t.Fatalf("newest seq %d != total %d", last, s.Total())
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render unknown")
	}
}
