package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeTraceRejectsDefaultNameCollision pins that an explicit
// session name equal to another arrival's default "<app>#<index>" name
// is refused, in either order, and that the error names both arrivals.
// The replay tracks sessions by name, so a second session under the
// same name would replace the first, which would then never run.
func TestDecodeTraceRejectsDefaultNameCollision(t *testing.T) {
	for name, raw := range map[string]string{
		"explicit after default": `{"arrivals":[{"at":0,"app":"octree","dwell":10,"tasks":2},` +
			`{"at":1,"app":"octree","dwell":1,"tasks":2,"session":"octree#0"}]}`,
		"explicit before default": `{"arrivals":[{"at":0,"app":"vision","dwell":1,"session":"octree#1"},` +
			`{"at":1,"app":"octree","dwell":1}]}`,
	} {
		_, err := DecodeTrace(strings.NewReader(raw))
		if err == nil {
			t.Errorf("%s: DecodeTrace accepted %s", name, raw)
			continue
		}
		for _, want := range []string{"arrival 1 reuses", "by arrival 0", "<app>#<index>"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}
}

// TestReplayRejectsSessionNameCollision pins the same rule for a trace
// built in code, which never passes through DecodeTrace: ReplayWith
// refuses it before placing anything, naming both arrivals.
func TestReplayRejectsSessionNameCollision(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 2}}})
	tr := Trace{Arrivals: []Arrival{
		{At: 0, App: "octree", Dwell: 10, Tasks: 2},
		{At: 1, App: "octree", Dwell: 1, Tasks: 2, Session: "octree#0"},
	}}
	_, err := f.ReplayWith(tr, ReplayOptions{})
	if err == nil {
		t.Fatal("ReplayWith accepted two arrivals named octree#0")
	}
	for _, want := range []string{"arrival 1 reuses", "by arrival 0", "<app>#<index>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if st := f.Stats(); st.Arrivals != 0 {
		t.Errorf("rejected trace still placed %d arrivals", st.Arrivals)
	}
}

// FuzzDecodeTrace checks every trace DecodeTrace accepts against the
// replay's preconditions: arrival times >= 0 and non-decreasing, dwells
// and deadlines >= 0, effective session names unique, and a lossless
// Encode → DecodeTrace round trip.
func FuzzDecodeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := DecodeTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// ReplayWith applies the same time rule to code-built traces; a
		// decoded trace that failed it would replay differently from one
		// built in code.
		if err := checkTimes(tr.Arrivals); err != nil {
			t.Fatalf("DecodeTrace accepted a trace the replay refuses: %v", err)
		}
		names := map[string]int{}
		prev := 0.0
		for i, a := range tr.Arrivals {
			if a.At < prev {
				t.Fatalf("arrival %d at=%v: negative or earlier than the previous arrival (%v)", i, a.At, prev)
			}
			prev = a.At
			if a.Dwell < 0 || a.Deadline < 0 {
				t.Fatalf("arrival %d: dwell=%v deadline=%v", i, a.Dwell, a.Deadline)
			}
			name := sessionName(a, i)
			if j, dup := names[name]; dup {
				t.Fatalf("arrivals %d and %d both replay as session %q", j, i, name)
			}
			names[name] = i
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding an accepted trace: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("trace changed across encode/decode:\n%+v\n%+v", tr, back)
		}
	})
}
