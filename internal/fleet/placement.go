package fleet

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"bettertogether/internal/core"
	"bettertogether/internal/obs"
	"bettertogether/internal/runtime"
)

// PlacementError reports an arrival no node in the fleet could admit.
// Refusals holds each candidate's typed admission error in the order
// placement tried them, so callers can see whether bandwidth or cores
// ran out fleet-wide.
type PlacementError struct {
	// App is the rejected application's name.
	App string
	// Refusals maps the attempt order onto node IDs and their admission
	// errors.
	Refusals []NodeRefusal
}

// NodeRefusal is one node's admission refusal during a placement sweep.
type NodeRefusal struct {
	Node string
	Err  *runtime.AdmissionError
}

// Error implements error.
func (e *PlacementError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: no node admitted %q (%d tried)", e.App, len(e.Refusals))
	for _, r := range e.Refusals {
		if r.Err.Floor {
			fmt.Fprintf(&b, "; %s: minimum %s demand over all schedules %.2f > %.2f", r.Node, r.Err.Resource, r.Err.Demand, r.Err.Capacity)
			continue
		}
		fmt.Fprintf(&b, "; %s: %s demand %.2f > %.2f", r.Node, r.Err.Resource, r.Err.Demand, r.Err.Capacity)
	}
	return b.String()
}

// Placement records where one arrival landed.
type Placement struct {
	// Node is the registry node that admitted the session.
	Node *Node
	// Session is the admitted (and, under Hold, not yet started) session.
	Session *runtime.Session
	// Choice is the node's rank in the candidate order placement swept:
	// 0 means first pick, anything above is a spillover past Choice
	// refusals.
	Choice int
}

// candidate pairs a node with its placement score for ranking.
type candidate struct {
	node      *Node
	preferred bool
	score     float64
}

// less is the fleet-wide candidate order: affinity-preferred nodes
// first, then descending headroom score, then ascending node ID — the
// explicit, registry-order-independent tie-break for equal scores
// (pinned by TestRankTiesBreakByNodeID). Both the exhaustive rank and
// the banded index sort with it, which is what keeps their sweeps
// identical.
func (c candidate) less(o candidate) bool {
	if c.preferred != o.preferred {
		return c.preferred
	}
	if c.score != o.score {
		return c.score > o.score
	}
	return c.node.ID < o.node.ID
}

// headroomScore is the interference-headroom objective placement ranks
// by: the node's normalized worst-case slack across the two admission
// resources. 1 is an idle node, 0 a node at capacity, negative an
// oversubscribed one (admissions tolerate projected oversubscription by
// design — headroom factors above 1 — so negatives are reachable and
// still ordered correctly).
func headroomScore(h obs.Headroom) float64 {
	bw := 1.0
	if h.BWCapacityGBs > 0 {
		bw = (h.BWCapacityGBs - h.BWDemandGBs) / h.BWCapacityGBs
	}
	cores := 1.0
	if h.CoresCapacity > 0 {
		cores = (h.CoresCapacity - h.CoresDemand) / h.CoresCapacity
	}
	if cores < bw {
		return cores
	}
	return bw
}

// rank orders the registry for one arrival by exhaustively scoring
// every placeable node. It reads every node runtime's headroom — O(n)
// per arrival — so placement uses it only on an exhaustive reference
// fleet, the order the banded index is checked against.
func (f *Fleet) rank(app string) []candidate {
	affinity := f.cfg.Affinity[app]
	cands := make([]candidate, 0, len(f.nodes))
	for _, n := range f.nodes {
		if n.drained {
			continue
		}
		cands = append(cands, candidate{
			node:      n,
			preferred: affinity != "" && n.Device.Name == affinity,
			score:     f.score(n),
		})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].less(cands[b]) })
	return cands
}

// sweepLocked yields placement candidates for one application in rank
// order until yield returns false, skipping exclude (the migration
// source). With the index only visited bands are sorted; an exhaustive
// reference fleet ranks the whole registry. Callers hold f.mu.
func (f *Fleet) sweepLocked(app string, exclude *Node, yield func(candidate) bool) {
	if f.index != nil {
		f.index.sweep(f.cfg.Affinity[app], func(c candidate) bool {
			if c.node == exclude {
				return true
			}
			return yield(c)
		})
		return
	}
	for _, c := range f.rank(app) {
		if c.node == exclude {
			continue
		}
		if !yield(c) {
			return
		}
	}
}

// tryAdmitLocked offers one application to one candidate node. On
// success it returns the session; on a typed admission refusal it
// records the node's refusal into perr and returns (nil, nil) so the
// sweep moves on; any other error (a planning failure, a closed
// runtime) is fatal.
func (f *Fleet) tryAdmitLocked(c candidate, app *core.Application, opts runtime.AdmitOptions, perr *PlacementError) (*runtime.Session, error) {
	s, err := c.node.RT.Admit(app, opts)
	if err == nil {
		return s, nil
	}
	var aerr *runtime.AdmissionError
	if !errors.As(err, &aerr) {
		return nil, fmt.Errorf("fleet: placing %q on %s: %w", app.Name, c.node.ID, err)
	}
	c.node.rejected++
	f.cfg.Trace.Attempt(opts.Name, c.node.ID, aerr.Error())
	if perr != nil {
		perr.Refusals = append(perr.Refusals, NodeRefusal{Node: c.node.ID, Err: aerr})
	}
	return nil, nil
}

// Place routes one arrival onto the fleet: candidates are ranked by
// affinity and projected interference headroom (via the banded index),
// and the application is admitted on the first node that accepts it.
// A node's typed *runtime.AdmissionError is a spillover, not a failure
// — placement moves on to the next-ranked candidate and only returns
// *PlacementError once every node has refused. Any other admission error (a planning failure, a closed
// runtime) aborts the sweep and is returned as-is. Drained nodes are
// invisible to the sweep.
//
// The session is admitted with the caller's options verbatim; replay
// passes Hold so execution stays on the replay clock.
func (f *Fleet) Place(app *core.Application, opts runtime.AdmitOptions) (*Placement, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.arrivals++
	f.seq++
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("%s#%d", app.Name, f.seq)
	}
	f.cfg.Trace.Arrived(opts.Name, app.Name)

	perr := &PlacementError{App: app.Name}
	var placed *Placement
	var fatal error
	choice := 0
	f.sweepLocked(app.Name, nil, func(c candidate) bool {
		s, err := f.tryAdmitLocked(c, app, opts, perr)
		if err != nil {
			fatal = err
			return false
		}
		if s != nil {
			placed = &Placement{Node: c.node, Session: s, Choice: choice}
			return false
		}
		choice++
		return true
	})
	if fatal != nil {
		return nil, fatal
	}
	if placed == nil {
		f.rejected++
		f.emit(obs.KindReject, func(e *obs.Event) {
			e.Session = opts.Name
			e.Detail = fmt.Sprintf("fleet: all %d nodes refused", len(perr.Refusals))
		})
		f.cfg.Trace.Rejected(opts.Name, perr.Error())
		return nil, perr
	}
	placed.Node.placed++
	f.placed++
	if placed.Choice > 0 {
		f.spills++
	}
	f.trackLocked(opts.Name, app, opts, placed.Node, placed.Session)
	f.refileLocked(placed.Node)
	f.emit(obs.KindPlace, func(e *obs.Event) {
		e.Session = opts.Name
		e.Detail = fmt.Sprintf("node=%s choice=%d", placed.Node.ID, placed.Choice)
	})
	f.cfg.Trace.Placed(opts.Name, placed.Node.ID, placed.Choice+1)
	return placed, nil
}
