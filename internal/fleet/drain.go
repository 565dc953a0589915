package fleet

import (
	"fmt"
	"sort"

	"bettertogether/internal/obs"
)

// Drain cordons a node out of placement and migrates its held sessions
// elsewhere. The state machine per session is
// place-elsewhere-then-release: the session is re-admitted verbatim
// (same options, same name) on the best-ranked other node first, and
// only then is the original reservation released — capacity is never
// dropped before its replacement exists, so a migration can never turn
// a placeable session into a rejected one. Sessions that are already
// executing (or finished) stay put: drain stops new placements, it
// does not kill residents.
//
// Held sessions that no other node can admit remain held on the
// drained node until they run or are released; nothing retries their
// migration. Returns how many sessions moved. Draining an
// already-drained node is a no-op.
func (f *Fleet) Drain(nodeID string) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodeByIDLocked(nodeID)
	if n == nil {
		return 0, fmt.Errorf("fleet: drain: unknown node %q", nodeID)
	}
	if n.drained {
		return 0, nil
	}
	n.drained = true
	if f.index != nil {
		f.index.remove(n)
	}
	moved, err := f.migrateLocked(n)
	f.emit(obs.KindDrain, func(e *obs.Event) {
		e.Detail = fmt.Sprintf("node=%s migrated=%d", n.ID, moved)
	})
	return moved, err
}

// Drained reports whether a node is currently cordoned.
func (f *Fleet) Drained(nodeID string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodeByIDLocked(nodeID)
	return n != nil && n.drained
}

// migrateLocked moves every migratable held session off one node, in
// placement-sequence order so the outcome is deterministic. Running and
// finished sessions are skipped (finished ones are pruned from the
// active map). Each migration sweeps the other nodes in rank order and
// admits on the first acceptor; refusals everywhere leave the session
// in place. Callers hold f.mu.
func (f *Fleet) migrateLocked(from *Node) (int, error) {
	var entries []*activeSession
	for name, e := range f.active {
		if e.node != from {
			continue
		}
		if !e.sess.Held() {
			select {
			case <-e.sess.Done():
				delete(f.active, name)
			default:
			}
			continue
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })

	moved := 0
	for _, e := range entries {
		var to *Node
		var fatal error
		f.sweepLocked(e.app.Name, from, func(c candidate) bool {
			s, err := f.tryAdmitLocked(c, e.app, e.opts, nil)
			if err != nil {
				fatal = err
				return false
			}
			if s != nil {
				to = c.node
				f.cfg.Trace.BeginMigration(e.opts.Name, from.ID)
				e.sess.Release()
				e.node, e.sess = c.node, s
				return false
			}
			return true
		})
		if fatal != nil {
			return moved, fatal
		}
		if to == nil {
			continue
		}
		moved++
		f.migrations++
		f.refileLocked(to)
		f.emit(obs.KindMigrate, func(ev *obs.Event) {
			ev.Session = e.opts.Name
			ev.Detail = fmt.Sprintf("from=%s to=%s", from.ID, to.ID)
		})
		f.cfg.Trace.Migrated(e.opts.Name, from.ID, to.ID)
	}
	return moved, nil
}
