package sessiontrace

import (
	"encoding/json"
	"fmt"
	"testing"
)

// all returns a tracer that samples every session.
func all() *Tracer { return New(Config{SampleRate: 1, Seed: 1}) }

// spill replays a canonical spillover lifecycle onto tr: arrival, one
// refused candidate, spillover placement, hold, start, two waves, and a
// deadline-carrying completion.
func spill(tr *Tracer, session string, elapsed, deadline float64) {
	tr.Arrived(session, "octree")
	tr.Attempt(session, "pixel7a/0", "bandwidth demand 12.00 > 10.00")
	tr.Placed(session, "jetson/0", 2)
	tr.Admitted(session, "octree", "[big gpu]", true)
	tr.Started(session)
	tr.WaveStart(session, 0, 4, "[big gpu]")
	tr.WaveEnd(session, 0, elapsed/2)
	tr.WaveStart(session, 1, 4, "[big gpu]")
	tr.WaveEnd(session, 1, elapsed/2)
	tr.SessionEnd(session, elapsed, deadline, 8, false, "")
}

func TestLifecycleSpanTree(t *testing.T) {
	tr := all()
	tr.AdvanceTo(3)
	spill(tr, "octree#1", 2.0, 5.0)

	doc, ok := tr.Trace("octree#1")
	if !ok {
		t.Fatal("trace not retained")
	}
	if doc.Session != "octree#1" || doc.App != "octree" {
		t.Fatalf("identity %q/%q", doc.Session, doc.App)
	}
	if doc.Verdict != VerdictAttained {
		t.Fatalf("verdict %q, want attained (elapsed 2 <= deadline 5)", doc.Verdict)
	}
	if doc.Deadline != 5 || doc.Elapsed != 2 {
		t.Fatalf("deadline/elapsed %v/%v", doc.Deadline, doc.Elapsed)
	}
	if doc.TraceID == "" || len(doc.TraceID) != 16 {
		t.Fatalf("trace id %q", doc.TraceID)
	}

	kinds := make([]string, len(doc.Spans))
	for i, s := range doc.Spans {
		kinds[i] = s.Kind
	}
	want := []string{KindSession, KindPlacement, KindAttempt, KindHold, KindStart,
		KindWave, KindWave}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("span kinds %v, want %v", kinds, want)
	}

	// Causality: IDs start at 1, the root has no parent, the refusal hangs
	// off the placement span, waves off the root.
	if doc.Spans[0].ID != 1 || doc.Spans[0].Parent != 0 {
		t.Fatalf("root span %+v", doc.Spans[0])
	}
	if doc.Spans[2].Parent != doc.Spans[1].ID {
		t.Fatalf("attempt parent %d, want placement %d", doc.Spans[2].Parent, doc.Spans[1].ID)
	}
	for _, i := range []int{3, 4, 5, 6} {
		if doc.Spans[i].Parent != 1 {
			t.Fatalf("span %d (%s) parent %d, want root", i, doc.Spans[i].Kind, doc.Spans[i].Parent)
		}
	}

	// The clock: arrival at t=3 (AdvanceTo), waves advance by their
	// elapsed, the root closes at the last wave's end.
	if doc.Spans[0].Start != 3 {
		t.Fatalf("root start %v, want 3", doc.Spans[0].Start)
	}
	if doc.Spans[5].End != 4 || doc.Spans[6].End != 5 {
		t.Fatalf("wave ends %v/%v, want 4/5", doc.Spans[5].End, doc.Spans[6].End)
	}
	if doc.Spans[0].End != 5 {
		t.Fatalf("root end %v, want 5", doc.Spans[0].End)
	}

	// Spillover annotation on the placement span.
	if doc.Spans[1].Name != "jetson/0" || doc.Spans[1].Detail != "spillover: choice 2" {
		t.Fatalf("placement span %+v", doc.Spans[1])
	}
	if doc.Spans[2].Name != "pixel7a/0" || doc.Spans[2].Detail == "" {
		t.Fatalf("attempt span %+v", doc.Spans[2])
	}
}

func TestVerdicts(t *testing.T) {
	cases := []struct {
		name     string
		elapsed  float64
		deadline float64
		errText  string
		want     string
	}{
		{"attained", 2, 5, "", VerdictAttained},
		{"missed", 6, 5, "", VerdictMissed},
		{"no-deadline", 2, 0, "", VerdictOK},
		{"failed", 2, 5, "engine: boom", VerdictFailed},
	}
	for _, c := range cases {
		tr := all()
		tr.Arrived(c.name, "octree")
		tr.Placed(c.name, "jetson/0", 1)
		tr.SessionEnd(c.name, c.elapsed, c.deadline, 4, false, c.errText)
		doc, ok := tr.Trace(c.name)
		if !ok || doc.Verdict != c.want {
			t.Errorf("%s: verdict %q (ok=%v), want %q", c.name, doc.Verdict, ok, c.want)
		}
		if c.errText != "" && doc.Spans[0].Detail != c.errText {
			t.Errorf("%s: root detail %q", c.name, doc.Spans[0].Detail)
		}
	}
}

func TestRejectedTrace(t *testing.T) {
	tr := all()
	tr.Arrived("octree#9", "octree")
	tr.Attempt("octree#9", "pixel7a/0", "bandwidth demand 12.00 > 10.00")
	tr.Attempt("octree#9", "jetson/0", "cores demand 9.00 > 8.00")
	tr.Rejected("octree#9", "fleet: no node admitted \"octree\" (2 tried)")
	doc, ok := tr.Trace("octree#9")
	if !ok || doc.Verdict != VerdictRejected {
		t.Fatalf("verdict %q (ok=%v)", doc.Verdict, ok)
	}
	last := doc.Spans[len(doc.Spans)-1]
	if last.Kind != KindRejectedSpan || last.Detail == "" {
		t.Fatalf("terminal span %+v", last)
	}
	// A finished trace must not reopen under the same name.
	tr.Arrived("octree#9", "octree")
	again, _ := tr.Trace("octree#9")
	if len(again.Spans) != len(doc.Spans) {
		t.Fatalf("finished trace reopened: %d spans, had %d", len(again.Spans), len(doc.Spans))
	}
}

func TestMigrationAndReleasedReservation(t *testing.T) {
	tr := all()
	tr.Arrived("octree#2", "octree")
	tr.Placed("octree#2", "jetson/0", 1)
	tr.Admitted("octree#2", "octree", "[big]", true)

	// Drain moves the session: re-admit elsewhere, then the source
	// reservation ends canceled with zero tasks — a release, not a death.
	tr.BeginMigration("octree#2", "jetson/0")
	tr.Admitted("octree#2", "octree", "[gpu]", true)
	tr.SessionEnd("octree#2", 0, 5, 0, true, "context canceled")
	tr.Migrated("octree#2", "jetson/0", "pixel7a/0")

	doc, ok := tr.Trace("octree#2")
	if !ok {
		t.Fatal("trace gone")
	}
	if doc.Verdict != "" {
		t.Fatalf("released reservation closed the trace: verdict %q", doc.Verdict)
	}
	var mig, rel bool
	for _, s := range doc.Spans {
		if s.Kind == KindMigration && s.Detail == "from=jetson/0 to=pixel7a/0" {
			mig = true
		}
		if s.Kind == KindReleased {
			rel = true
		}
	}
	if !mig || !rel {
		t.Fatalf("migration=%v released=%v in %+v", mig, rel, doc.Spans)
	}

	// The continued session finishes normally on the new node.
	tr.Started("octree#2")
	tr.SessionEnd("octree#2", 3, 5, 4, false, "")
	doc, _ = tr.Trace("octree#2")
	if doc.Verdict != VerdictAttained {
		t.Fatalf("final verdict %q", doc.Verdict)
	}
}

func TestSamplingDeterministicAndPartial(t *testing.T) {
	// Same seed ⇒ identical decisions; a 0.5 rate over many names must
	// sample some and skip some.
	a := New(Config{SampleRate: 0.5, Seed: 42})
	b := New(Config{SampleRate: 0.5, Seed: 42})
	in, out := 0, 0
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("octree#%d", i)
		_, sa := a.sampled(name)
		_, sb := b.sampled(name)
		if sa != sb {
			t.Fatalf("decision for %q diverged", name)
		}
		if sa {
			in++
		} else {
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("rate 0.5 sampled %d/200", in)
	}
	// A different seed picks a different set (overwhelmingly likely over
	// 200 names).
	c := New(Config{SampleRate: 0.5, Seed: 43})
	diff := 0
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("octree#%d", i)
		_, sa := a.sampled(name)
		_, sc := c.sampled(name)
		if sa != sc {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not move the sampled set")
	}
}

func TestSampledSetByteIdentical(t *testing.T) {
	replay := func() []byte {
		tr := New(Config{SampleRate: 0.5, Seed: 7})
		for i := 0; i < 40; i++ {
			tr.AdvanceTo(float64(i))
			spill(tr, fmt.Sprintf("octree#%d", i), 1.5, 2.0)
		}
		b, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return b
	}
	one, two := replay(), replay()
	if string(one) != string(two) {
		t.Fatal("same seed, same replay: sampled span sets differ")
	}
}

func TestUnsampledHooksDoNotAllocate(t *testing.T) {
	tr := New(Config{SampleRate: 0.25, Seed: 1})
	// Find a session name the tracer skips.
	name := ""
	for i := 0; i < 1000; i++ {
		n := fmt.Sprintf("octree#%d", i)
		if _, ok := tr.sampled(n); !ok {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatal("no unsampled name found at rate 0.25")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Arrived(name, "octree")
		tr.Attempt(name, "jetson/0", "refused")
		tr.Placed(name, "jetson/0", 1)
		tr.WaveStart(name, 0, 4, "[big]")
		tr.WaveEnd(name, 0, 1)
		tr.SessionEnd(name, 1, 2, 4, false, "")
	})
	if allocs != 0 {
		t.Fatalf("unsampled hot path allocates %.1f per run, want 0", allocs)
	}
	// The rate-0 tracer and the nil tracer are equally free.
	var nilTr *Tracer
	off := New(Config{})
	allocs = testing.AllocsPerRun(100, func() {
		nilTr.Arrived("x", "y")
		off.Arrived("x", "y")
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f per run", allocs)
	}
}

func TestEvictionPrefersFinishedTraces(t *testing.T) {
	tr := New(Config{SampleRate: 1, Seed: 1})
	tr.cap = 2
	tr.Arrived("a", "octree") // stays open
	tr.Arrived("b", "octree")
	tr.SessionEnd("b", 1, 0, 4, false, "") // finished → preferred victim
	tr.Arrived("c", "octree")
	if _, ok := tr.Trace("b"); ok {
		t.Fatal("finished trace b survived eviction")
	}
	if _, ok := tr.Trace("a"); !ok {
		t.Fatal("open trace a evicted before finished b")
	}
	if _, ok := tr.Trace("c"); !ok {
		t.Fatal("new trace c missing")
	}
	// All open: the oldest goes.
	tr.Arrived("d", "octree")
	if _, ok := tr.Trace("a"); ok {
		t.Fatal("oldest open trace a survived at capacity")
	}
}

func TestSnapshotReturnsCopies(t *testing.T) {
	tr := all()
	tr.Arrived("a", "octree")
	snap := tr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot %d docs", len(snap))
	}
	snap[0].Spans[0].Detail = "mutated"
	doc, _ := tr.Trace("a")
	if doc.Spans[0].Detail == "mutated" {
		t.Fatal("snapshot aliases live spans")
	}
}
