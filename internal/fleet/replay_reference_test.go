package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/runtime"
	"bettertogether/pkg/btapps"
)

// TestRankTiesBreakByNodeID pins the explicit score tie-break: with
// every node idle (all scores exactly 1.0), candidates order by node ID,
// not by registry declaration order.
func TestRankTiesBreakByNodeID(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{
		{Device: "pixel7a", Count: 1}, // registry-first, but name-last
		{Device: "jetson", Count: 1},
		{Device: "oneplus11", Count: 1},
	}})
	var got []string
	for _, c := range f.rank("octree") {
		got = append(got, c.node.ID)
	}
	want := []string{"jetson/0", "oneplus11/0", "pixel7a/0"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tied rank order = %v, want node-ID order %v", got, want)
	}
	app, err := btapps.ByName("octree")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if p.Node.ID != "jetson/0" {
		t.Fatalf("tied placement landed on %s, want jetson/0 (smallest node ID)", p.Node.ID)
	}
}

// TestDecodeTraceDescriptiveErrors pins that each validation failure
// gets its own descriptive message naming the offending arrival.
func TestDecodeTraceDescriptiveErrors(t *testing.T) {
	cases := map[string]struct {
		raw  string
		want string
	}{
		"negative time": {
			raw:  `{"arrivals":[{"at":-1,"app":"octree","dwell":1}]}`,
			want: "negative time",
		},
		"non-monotonic": {
			raw:  `{"arrivals":[{"at":5,"app":"octree","dwell":1},{"at":1,"app":"octree","dwell":1}]}`,
			want: "non-monotonic",
		},
		"negative dwell": {
			raw:  `{"arrivals":[{"at":0,"app":"octree","dwell":-2}]}`,
			want: "negative dwell",
		},
		"duplicate session": {
			raw: `{"arrivals":[{"at":0,"app":"octree","dwell":1,"session":"s1"},` +
				`{"at":1,"app":"vision","dwell":1,"session":"s1"}]}`,
			want: `reuses session ID "s1"`,
		},
	}
	for name, tc := range cases {
		_, err := DecodeTrace(strings.NewReader(tc.raw))
		if err == nil {
			t.Errorf("%s: DecodeTrace accepted %s", name, tc.raw)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
	// Distinct non-empty session names (and empty ones, any number) pass.
	ok := `{"arrivals":[{"at":0,"app":"octree","dwell":1,"session":"a"},` +
		`{"at":1,"app":"octree","dwell":1},{"at":2,"app":"octree","dwell":1,"session":"b"},` +
		`{"at":3,"app":"octree","dwell":1}]}`
	if _, err := DecodeTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("DecodeTrace rejected a valid trace: %v", err)
	}
}

// TestPlacementErrorRefusalOrder pins PlacementError aggregation: every
// refused node's typed admission error appears exactly once, in the
// candidate order the sweep tried them.
func TestPlacementErrorRefusalOrder(t *testing.T) {
	f := mustFleet(t, Config{
		Nodes:        []NodeSpec{{Device: "jetson", Count: 3}},
		BWHeadroom:   1.2,
		CoreHeadroom: 100,
	})
	app, err := btapps.ByName("vision")
	if err != nil {
		t.Fatal(err)
	}
	// One vision fits per jetson; fill all three.
	for i := 0; i < 3; i++ {
		if _, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true}); err != nil {
			t.Fatalf("fill Place %d: %v", i, err)
		}
	}
	_, err = f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	var perr *PlacementError
	if !errors.As(err, &perr) {
		t.Fatalf("Place on a full fleet = %v, want *PlacementError", err)
	}
	var got []string
	for _, r := range perr.Refusals {
		if r.Err == nil {
			t.Fatalf("refusal on %s carries no *runtime.AdmissionError", r.Node)
		}
		got = append(got, r.Node)
	}
	// Equally loaded nodes tie on score, so candidate order is node-ID
	// order — and each node appears exactly once.
	want := []string{"jetson/0", "jetson/1", "jetson/2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refusal order = %v, want %v", got, want)
	}
}

// pinnedSchedule builds an all-big-core schedule for an application —
// valid on every catalog device — so Admit skips the planning pipeline
// and tests exercise placement, not the optimizer.
func pinnedSchedule(t testing.TB, app *core.Application) *core.Schedule {
	t.Helper()
	sc := core.Schedule{Assign: make([]core.PUClass, len(app.Stages))}
	for i := range sc.Assign {
		sc.Assign[i] = core.ClassBig
	}
	return &sc
}

// TestBandedMatchesExhaustive is the banded-index equivalence pin: on
// randomized fleets of >= 500 nodes, a banded fleet and an exhaustive
// reference fleet driven through an identical randomized
// place/depart/drain sequence make byte-for-byte identical
// placement decisions.
func TestBandedMatchesExhaustive(t *testing.T) {
	app, err := btapps.ByName("octree")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			nodes := []NodeSpec{
				{Device: "pixel7a", Count: 170},
				{Device: "oneplus11", Count: 170},
				{Device: "jetson", Count: 170},
			}
			banded := mustFleet(t, Config{Nodes: nodes, Seed: seed})
			exhaustive := mustFleet(t, Config{Nodes: nodes, Seed: seed, exhaustive: true})
			if banded.index == nil || exhaustive.index != nil {
				t.Fatal("index enablement wired backwards")
			}

			rng := rand.New(rand.NewSource(seed))
			sched := pinnedSchedule(t, app)
			var active []string // session names live in both fleets
			depart := func(f *Fleet, name string) {
				s := f.lookupActive(name)
				if s == nil {
					t.Fatalf("session %q not active", name)
				}
				s.Release()
				f.departed(name)
			}
			for op := 0; op < 900; op++ {
				switch r := rng.Float64(); {
				case r < 0.62 || len(active) == 0:
					name := fmt.Sprintf("s%d", op)
					opts := runtime.AdmitOptions{Name: name, Tasks: 2, Hold: true, Schedule: sched}
					pb, errB := banded.Place(app, opts)
					pe, errE := exhaustive.Place(app, opts)
					if (errB == nil) != (errE == nil) {
						t.Fatalf("op %d: banded err %v, exhaustive err %v", op, errB, errE)
					}
					if errB != nil {
						var prB, prE *PlacementError
						if !errors.As(errB, &prB) || !errors.As(errE, &prE) {
							t.Fatalf("op %d: non-admission failure: %v / %v", op, errB, errE)
						}
						if !reflect.DeepEqual(refusalNodes(prB), refusalNodes(prE)) {
							t.Fatalf("op %d: refusal orders diverge:\n%v\n%v",
								op, refusalNodes(prB), refusalNodes(prE))
						}
						continue
					}
					if pb.Node.ID != pe.Node.ID || pb.Choice != pe.Choice {
						t.Fatalf("op %d: banded placed %s choice %d, exhaustive %s choice %d",
							op, pb.Node.ID, pb.Choice, pe.Node.ID, pe.Choice)
					}
					active = append(active, name)
				case r < 0.92:
					i := rng.Intn(len(active))
					name := active[i]
					active = append(active[:i], active[i+1:]...)
					depart(banded, name)
					depart(exhaustive, name)
				default:
					id := fmt.Sprintf("jetson/%d", rng.Intn(170))
					mb, errB := banded.Drain(id)
					me, errE := exhaustive.Drain(id)
					if errB != nil || errE != nil {
						t.Fatalf("op %d: drain %s: %v / %v", op, id, errB, errE)
					}
					if mb != me {
						t.Fatalf("op %d: drain %s migrated %d banded vs %d exhaustive", op, id, mb, me)
					}
				}
			}
			sb, se := banded.Stats(), exhaustive.Stats()
			sb.Latency, se.Latency = nil, nil
			rawB, _ := json.Marshal(sb)
			rawE, _ := json.Marshal(se)
			if !bytes.Equal(rawB, rawE) {
				t.Fatalf("final stats diverge:\nbanded:     %s\nexhaustive: %s", rawB, rawE)
			}
			if sb.Placed < 500 {
				t.Fatalf("only %d placements exercised, want a fleet-scale workload", sb.Placed)
			}
		})
	}
}

func refusalNodes(perr *PlacementError) []string {
	out := make([]string, len(perr.Refusals))
	for i, r := range perr.Refusals {
		out[i] = r.Node
	}
	return out
}

// lockstepReplay is the historical hand-rolled replay loop, kept here
// as the reference semantics the sorted-event ReplayWith must reproduce
// byte-for-byte (TestReplayMatchesLockstepReference). It predates the
// banded index, so run it only on exhaustive reference fleets.
func lockstepReplay(t *testing.T, f *Fleet, tr Trace) ReplayResult {
	t.Helper()
	type replayEvent struct {
		at        float64
		departure bool
		seq       int
	}
	events := make([]replayEvent, 0, 2*len(tr.Arrivals))
	for i, a := range tr.Arrivals {
		events = append(events,
			replayEvent{at: a.At, seq: i},
			replayEvent{at: a.At + a.Dwell, departure: true, seq: i},
		)
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		if events[a].departure != events[b].departure {
			return events[a].departure
		}
		return events[a].seq < events[b].seq
	})
	res := ReplayResult{
		Arrivals: len(tr.Arrivals),
		Records:  make([]PlacementRecord, len(tr.Arrivals)),
	}
	sessions := make([]*runtime.Session, len(tr.Arrivals))
	for _, ev := range events {
		a := tr.Arrivals[ev.seq]
		rec := &res.Records[ev.seq]
		if ev.departure {
			s := sessions[ev.seq]
			if s == nil {
				continue
			}
			s.Start()
			r := s.Wait()
			if r.Err != nil {
				t.Fatalf("lockstep reference: session %s: %v", r.Name, r.Err)
			}
			rec.Elapsed = r.Elapsed
			f.observeLatency(r.Elapsed)
			continue
		}
		rec.Seq = ev.seq
		rec.At = a.At
		rec.App = a.App
		rec.Session = fmt.Sprintf("%s#%d", a.App, ev.seq)
		app, err := btapps.ByName(a.App)
		if err != nil {
			t.Fatalf("lockstep reference: arrival %d: %v", ev.seq, err)
		}
		p, err := f.Place(app, runtime.AdmitOptions{
			Name:  rec.Session,
			Tasks: a.Tasks,
			Seed:  a.Seed,
			Hold:  true,
		})
		if err != nil {
			var perr *PlacementError
			if !errors.As(err, &perr) {
				t.Fatalf("lockstep reference: %v", err)
			}
			rec.Rejected = true
			rec.Reason = perr.Error()
			res.Rejected++
			continue
		}
		sessions[ev.seq] = p.Session
		rec.Node = p.Node.ID
		rec.Choice = p.Choice
		res.Placed++
		if p.Choice > 0 {
			res.Spilled++
		}
	}
	res.P50 = f.latency.Quantile(0.50).Seconds()
	res.P99 = f.latency.Quantile(0.99).Seconds()
	return res
}

// TestReplayMatchesLockstepReference is the refactor's acceptance pin:
// ReplayWith (with the banded index on, its default) is
// byte-identical to the historical lockstep loop over an exhaustive
// fleet, on both the canonical bursty trace and btfleet's smoke workload.
func TestReplayMatchesLockstepReference(t *testing.T) {
	cases := map[string]struct {
		cfg Config
		gen GenConfig
	}{
		"bursty": {
			cfg: Config{
				Nodes: []NodeSpec{
					{Device: "pixel7a", Count: 1},
					{Device: "oneplus11", Count: 1},
					{Device: "jetson", Count: 1},
				},
				Seed:          11,
				CacheCapacity: 64,
			},
			gen: GenConfig{
				Pattern: PatternBursty, Arrivals: 6, Burst: 3, BurstEvery: 40,
				Apps: []string{"octree", "alexnet-sparse"}, MeanDwell: 5, Tasks: 4, Seed: 11,
			},
		},
		"ci-smoke": {
			cfg: Config{
				Nodes: []NodeSpec{
					{Device: "jetson", Count: 1},
					{Device: "pixel7a", Count: 1},
					{Device: "oneplus11", Count: 1},
				},
				Seed:         7,
				BWHeadroom:   1.0,
				CoreHeadroom: 100,
			},
			gen: GenConfig{
				Pattern: PatternBursty, Arrivals: 6, Burst: 3,
				Apps: []string{"vision", "octree"}, Seed: 7,
			},
		},
	}
	for name, tc := range cases {
		tc := tc
		t.Run(name, func(t *testing.T) {
			tr, err := Generate(tc.gen)
			if err != nil {
				t.Fatal(err)
			}
			refCfg := tc.cfg
			refCfg.exhaustive = true
			ref := lockstepReplay(t, mustFleet(t, refCfg), tr)
			des, err := mustFleet(t, tc.cfg).ReplayWith(tr, ReplayOptions{})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			rawRef, _ := json.Marshal(ref)
			rawDES, _ := json.Marshal(des)
			if !bytes.Equal(rawRef, rawDES) {
				t.Fatalf("DES replay diverged from lockstep reference:\nlockstep: %s\nDES:      %s", rawRef, rawDES)
			}
		})
	}
}

// TestReplayZeroDwell pins the zero-dwell edge the lockstep loop had:
// the departure event fires before its own arrival at the same instant,
// finds no session, and the arrival's reservation is simply left held —
// Elapsed stays zero and the replay still completes.
func TestReplayZeroDwell(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 1}}})
	tr := Trace{Arrivals: []Arrival{
		{At: 0, App: "octree", Dwell: 0, Tasks: 2},
		{At: 1, App: "octree", Dwell: 1, Tasks: 2},
	}}
	res, err := f.ReplayWith(tr, ReplayOptions{})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Placed != 2 {
		t.Fatalf("placed = %d, want 2", res.Placed)
	}
	if res.Records[0].Elapsed != 0 {
		t.Fatalf("zero-dwell record ran: %+v", res.Records[0])
	}
	if res.Records[1].Elapsed <= 0 {
		t.Fatalf("dwelling record never ran: %+v", res.Records[1])
	}
}

// TestDrainMigratesHeldSessions pins the drain state machine: held
// sessions move place-elsewhere-then-release, counters and events
// record the moves, and the drained node stays out of placement.
func TestDrainMigratesHeldSessions(t *testing.T) {
	stream := obs.NewStream(64)
	f := mustFleet(t, Config{
		Nodes: []NodeSpec{
			{Device: "jetson", Count: 1},
			{Device: "pixel7a", Count: 1},
		},
		Events: stream,
	})
	app, err := btapps.ByName("octree")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Place(app, runtime.AdmitOptions{Name: "mig", Tasks: 2, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Node.ID != "jetson/0" {
		t.Fatalf("setup placement on %s, want jetson/0", p.Node.ID)
	}

	moved, err := f.Drain("jetson/0")
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if moved != 1 {
		t.Fatalf("Drain migrated %d sessions, want 1", moved)
	}
	if !f.Drained("jetson/0") {
		t.Fatal("jetson/0 not marked drained")
	}
	// The reservation now lives on the other node; the old one released.
	if s := f.lookupActive("mig"); s == nil || !s.Held() {
		t.Fatal("migrated session is not an active held reservation")
	} else if f.active["mig"].node.ID != "pixel7a/0" {
		t.Fatalf("migrated session on %s, want pixel7a/0", f.active["mig"].node.ID)
	}
	if p.Session.Held() {
		t.Fatal("source reservation was never released")
	}
	s := f.Stats()
	if s.Migrations != 1 || s.Drained != 1 {
		t.Fatalf("stats migrations=%d drained=%d, want 1/1", s.Migrations, s.Drained)
	}
	if !s.PerNode[0].Drained || s.PerNode[1].Drained {
		t.Fatalf("per-node drained flags = %v/%v, want jetson only", s.PerNode[0].Drained, s.PerNode[1].Drained)
	}
	if s.PerNode[0].Headroom.ResidentCount != 0 {
		t.Fatalf("drained jetson still holds %d residents", s.PerNode[0].Headroom.ResidentCount)
	}

	// Placement skips the drained node even though it is now idle.
	p2, err := f.Place(app, runtime.AdmitOptions{Tasks: 2, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Node.ID != "pixel7a/0" || p2.Choice != 0 {
		t.Fatalf("post-drain placement = %s choice %d, want pixel7a/0 choice 0", p2.Node.ID, p2.Choice)
	}

	// Draining again is a no-op.
	if moved, err := f.Drain("jetson/0"); err != nil || moved != 0 {
		t.Fatalf("re-drain = %d, %v; want 0, nil", moved, err)
	}

	var drains, migrates []string
	for _, e := range stream.Recent(0) {
		switch e.Kind {
		case obs.KindDrain:
			drains = append(drains, e.Detail)
		case obs.KindMigrate:
			migrates = append(migrates, e.Session+": "+e.Detail)
		}
	}
	wantDrains := []string{"node=jetson/0 migrated=1"}
	if !reflect.DeepEqual(drains, wantDrains) {
		t.Fatalf("drain events = %v, want %v", drains, wantDrains)
	}
	wantMigrates := []string{"mig: from=jetson/0 to=pixel7a/0"}
	if !reflect.DeepEqual(migrates, wantMigrates) {
		t.Fatalf("migrate events = %v, want %v", migrates, wantMigrates)
	}
}

// TestDrainStrandedSessionStays pins the no-target path: a session no
// other node can admit stays held on the drained node, and nothing is
// silently dropped.
func TestDrainStrandedSessionStays(t *testing.T) {
	f := mustFleet(t, Config{
		Nodes: []NodeSpec{
			{Device: "jetson", Count: 1},
			{Device: "pixel7a", Count: 1},
		},
		BWHeadroom:   1.0,
		CoreHeadroom: 100,
	})
	app, err := btapps.ByName("vision")
	if err != nil {
		t.Fatal(err)
	}
	// Vision does not fit the jetson at 1.0 bandwidth headroom, so it
	// spills to the pixel — and can never migrate back.
	p, err := f.Place(app, runtime.AdmitOptions{Name: "stuck", Tasks: 2, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Node.ID != "pixel7a/0" {
		t.Fatalf("setup placement on %s, want pixel7a/0", p.Node.ID)
	}
	moved, err := f.Drain("pixel7a/0")
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if moved != 0 {
		t.Fatalf("Drain migrated %d, want 0 (no node can admit vision)", moved)
	}
	if f.active["stuck"].node.ID != "pixel7a/0" || !p.Session.Held() {
		t.Fatal("stranded session should remain held on the drained node")
	}
	if s := f.Stats(); s.Migrations != 0 || s.Drained != 1 {
		t.Fatalf("stats migrations=%d drained=%d, want 0/1", s.Migrations, s.Drained)
	}
}

// TestDrainUnknownNode pins the error paths.
func TestDrainUnknownNode(t *testing.T) {
	f := mustFleet(t, Config{Nodes: []NodeSpec{{Device: "pixel7a", Count: 1}}})
	if _, err := f.Drain("nope/0"); err == nil {
		t.Fatal("Drain accepted an unknown node")
	}
	if f.Drained("nope/0") {
		t.Fatal("unknown node reports drained")
	}
}

// TestReplayWithDrainDeterministic pins the control-plane event on the
// replay timeline: a drain mid-replay replays byte-identically, records
// the drain, and keeps every arrival accounted for.
func TestReplayWithDrainDeterministic(t *testing.T) {
	run := func() ([]byte, ReplayResult) {
		f := mustFleet(t, Config{
			Nodes: []NodeSpec{
				{Device: "pixel7a", Count: 1},
				{Device: "oneplus11", Count: 1},
				{Device: "jetson", Count: 1},
			},
			Seed:          11,
			CacheCapacity: 64,
		})
		tr, err := Generate(GenConfig{
			Pattern: PatternBursty, Arrivals: 6, Burst: 3, BurstEvery: 40,
			Apps: []string{"octree", "alexnet-sparse"}, MeanDwell: 5, Tasks: 4, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ReplayWith(tr, ReplayOptions{DrainNode: "pixel7a/0", DrainAt: 0.5})
		if err != nil {
			t.Fatalf("ReplayWith: %v", err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw, res
	}
	rawA, resA := run()
	rawB, _ := run()
	if !bytes.Equal(rawA, rawB) {
		t.Fatalf("drain replays diverged:\n%s\n%s", rawA, rawB)
	}
	if len(resA.Drains) != 1 || resA.Drains[0].Node != "pixel7a/0" || resA.Drains[0].At != 0.5 {
		t.Fatalf("drain record = %+v, want one pixel7a/0 drain at 0.5", resA.Drains)
	}
	if resA.Placed+resA.Rejected != resA.Arrivals {
		t.Fatalf("arrivals unaccounted: %+v", resA)
	}
	// No arrival may land on the drained node after the drain instant.
	for _, rec := range resA.Records {
		if rec.At > 0.5 && rec.Node == "pixel7a/0" {
			t.Fatalf("arrival at %v landed on the drained node: %+v", rec.At, rec)
		}
	}
}
