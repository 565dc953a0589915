package fleet

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestReplayEventOrder pins the timeline order ReplayWith relies on: at
// one instant departures run first, then control events (a drain), then
// arrivals; events sharing a time and priority keep the order they were
// appended in; and a priority never moves an event across timestamps.
func TestReplayEventOrder(t *testing.T) {
	type ev struct {
		at   float64
		prio int
		name string
	}
	type orderCase struct {
		name string
		in   []ev
		want []string
	}
	cases := []orderCase{
		{
			name: "priorities at one instant",
			in:   []ev{{5, prioArrival, "arrive"}, {5, prioControl, "drain"}, {5, prioDepart, "depart"}},
			want: []string{"depart", "drain", "arrive"},
		},
		{
			name: "trace order within a priority",
			in: []ev{
				{1, prioArrival, "a0"}, {1, prioDepart, "d0"}, {1, prioArrival, "a1"}, {1, prioControl, "c0"},
				{1, prioArrival, "a2"}, {1, prioDepart, "d1"}, {1, prioControl, "c1"}, {1, prioArrival, "a3"},
				{1, prioArrival, "a4"}, {1, prioDepart, "d2"},
			},
			want: []string{"d0", "d1", "d2", "c0", "c1", "a0", "a1", "a2", "a3", "a4"},
		},
		{
			name: "priority never crosses timestamps",
			in:   []ev{{2, prioDepart, "depart@2"}, {1, prioArrival, "arrive@1"}, {1.5, prioArrival, "arrive@1.5"}, {2, prioControl, "drain@2"}},
			want: []string{"arrive@1", "arrive@1.5", "depart@2", "drain@2"},
		},
		{
			name: "zero dwell departs before its own arrival",
			in:   []ev{{0, prioArrival, "a0"}, {0, prioDepart, "d0"}, {1, prioArrival, "a1"}, {3, prioDepart, "d1"}},
			want: []string{"d0", "a0", "a1", "d1"},
		},
	}
	// Sorts of up to 12 elements run as insertion sorts, which are stable
	// anyway; 40 interleaved same-instant events need the stable sort.
	many := orderCase{name: "trace order among many same-instant events"}
	var arrivals []string
	for i := range 40 {
		name := strconv.Itoa(i)
		if i%2 == 0 {
			many.in = append(many.in, ev{7, prioArrival, name})
			arrivals = append(arrivals, name)
		} else {
			many.in = append(many.in, ev{7, prioControl, name})
			many.want = append(many.want, name)
		}
	}
	many.want = append(many.want, arrivals...)
	for _, tc := range append(cases, many) {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			events := make([]replayEvent, len(tc.in))
			for i, e := range tc.in {
				events[i] = replayEvent{e.at, e.prio, func() error {
					got = append(got, e.name)
					return nil
				}}
			}
			sortEvents(events)
			for _, e := range events {
				e.fn()
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("order %v, want %v", got, tc.want)
			}
		})
	}
}

// TestReplayRejectsBadTimes pins that a trace built in code, which never
// passes through DecodeTrace, meets the same time rule: a negative or
// non-finite time, dwell or deadline, and a non-finite drain time or
// replay-wide SLO deadline, are refused before anything is placed.
func TestReplayRejectsBadTimes(t *testing.T) {
	ok := Arrival{At: 1, App: "octree", Dwell: 1, Tasks: 2}
	with := func(edit func(*Arrival)) []Arrival {
		a := ok
		edit(&a)
		return []Arrival{ok, a}
	}
	cases := map[string]struct {
		arrivals []Arrival
		opts     ReplayOptions
		want     string
	}{
		"negative time":     {with(func(a *Arrival) { a.At = -1 }), ReplayOptions{}, "arrival 1 has negative time at=-1"},
		"negative dwell":    {with(func(a *Arrival) { a.Dwell = -1 }), ReplayOptions{}, "arrival 1 has negative dwell=-1"},
		"negative deadline": {with(func(a *Arrival) { a.Deadline = -1 }), ReplayOptions{}, "arrival 1 has negative deadline=-1"},
		"NaN time":          {with(func(a *Arrival) { a.At = math.NaN() }), ReplayOptions{}, "arrival 1 has non-finite time at=NaN"},
		"infinite dwell":    {with(func(a *Arrival) { a.Dwell = math.Inf(1) }), ReplayOptions{}, "arrival 1 has non-finite dwell=+Inf"},
		"NaN drain":         {[]Arrival{ok}, ReplayOptions{DrainNode: "pixel7a/0", DrainAt: math.NaN()}, "drain time NaN"},
		"infinite drain":    {[]Arrival{ok}, ReplayOptions{DrainNode: "pixel7a/0", DrainAt: math.Inf(1)}, "drain time +Inf"},
		"NaN SLO deadline":  {[]Arrival{ok}, ReplayOptions{SLODeadline: math.NaN()}, "SLO deadline NaN"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 1}}})
			_, err := f.ReplayWith(Trace{Arrivals: tc.arrivals}, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ReplayWith: err %v, want one mentioning %q", err, tc.want)
			}
			if st := f.Stats(); st.Arrivals != 0 {
				t.Errorf("refused trace still placed %d arrivals", st.Arrivals)
			}
		})
	}
	// Unsorted arrivals are not a time error: code-built traces replay
	// in time order whatever order they were built in.
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 1}}})
	late := ok
	late.At = 3
	if _, err := f.ReplayWith(Trace{Arrivals: []Arrival{late, ok}}, ReplayOptions{}); err != nil {
		t.Fatalf("ReplayWith refused an unsorted trace: %v", err)
	}
}
