package fleet

import (
	"math"
	"sort"
)

// indexBands is the headroom-band count placement quantizes scores
// into. 32 bands over the [0, 1] slack range keeps a band's score
// spread at ~3% — small enough that a typical arrival sorts only the
// handful of nodes in the top band instead of the whole registry.
const indexBands = 32

// bandEntry is one node's filed position in the index.
type bandEntry struct {
	band  int
	score float64
}

// bandIndex buckets registry nodes by quantized headroom score so
// placement can sweep candidates best-band-first instead of scoring the
// whole registry per arrival. It holds the fleet's cached score for
// every placeable (non-drained) node.
//
// Invariants (all maintained under the fleet mutex):
//
//   - A node appears in exactly one band, the one its cached score
//     quantizes into — or nowhere at all while drained.
//   - The cached score equals the live headroomScore of the node's
//     runtime: every fleet-visible event that moves a node's projected
//     demand (a successful admit, a replay departure, a migration in or
//     out) re-files the node. That freshness is what makes the banded
//     sweep provably equivalent to the exhaustive rank — pinned on
//     randomized fleets by TestBandedMatchesExhaustive.
//   - Quantization is monotonic (floor of score/width), so visiting
//     bands in descending id and sorting each visited band by exact
//     score yields exactly the exhaustive descending-score order.
type bandIndex struct {
	width float64
	bands map[int]map[*Node]struct{}
	info  map[*Node]bandEntry
}

// newBandIndex builds an empty index of indexBands bands.
func newBandIndex() *bandIndex {
	return &bandIndex{
		width: 1.0 / indexBands,
		bands: map[int]map[*Node]struct{}{},
		info:  map[*Node]bandEntry{},
	}
}

// bandOf quantizes a score into its band id. Scores can run negative
// (admission tolerates projected oversubscription), which simply files
// into negative bands — ordering still holds.
func (ix *bandIndex) bandOf(score float64) int {
	return int(math.Floor(score / ix.width))
}

// update (re-)files a node under its current score, moving it across
// bands when the quantized slack changed.
func (ix *bandIndex) update(n *Node, score float64) {
	b := ix.bandOf(score)
	if cur, ok := ix.info[n]; ok {
		if cur.band == b {
			ix.info[n] = bandEntry{band: b, score: score}
			return
		}
		ix.unfile(n, cur.band)
	}
	members := ix.bands[b]
	if members == nil {
		members = map[*Node]struct{}{}
		ix.bands[b] = members
	}
	members[n] = struct{}{}
	ix.info[n] = bandEntry{band: b, score: score}
}

// remove drops a node from the index entirely — the drain path; the
// node becomes invisible to placement until update files it again.
func (ix *bandIndex) remove(n *Node) {
	cur, ok := ix.info[n]
	if !ok {
		return
	}
	ix.unfile(n, cur.band)
	delete(ix.info, n)
}

// unfile detaches a node from one band's member set, pruning the band
// when it empties so sweeps never iterate dead bands.
func (ix *bandIndex) unfile(n *Node, band int) {
	delete(ix.bands[band], n)
	if len(ix.bands[band]) == 0 {
		delete(ix.bands, band)
	}
}

// sweep yields indexed nodes in exhaustive-rank order — affinity-class
// nodes first (when affinity is non-empty), then descending exact score,
// then ascending node ID — stopping early when yield returns false. Only
// the bands actually visited are sorted, which is the whole point: an
// arrival that lands in the top band costs one small sort, not a
// registry-wide one.
func (ix *bandIndex) sweep(affinity string, yield func(candidate) bool) {
	ids := make([]int, 0, len(ix.bands))
	for id := range ix.bands {
		ids = append(ids, id)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	// emit walks every band's members matching one affinity polarity;
	// it reports whether the yield chain stopped the sweep.
	emit := func(preferred bool) bool {
		for _, id := range ids {
			members := make([]candidate, 0, len(ix.bands[id]))
			for n := range ix.bands[id] {
				isPref := affinity != "" && n.Device.Name == affinity
				if isPref != preferred {
					continue
				}
				members = append(members, candidate{node: n, preferred: isPref, score: ix.info[n].score})
			}
			sort.Slice(members, func(a, b int) bool { return members[a].less(members[b]) })
			for _, c := range members {
				if !yield(c) {
					return true
				}
			}
		}
		return false
	}
	if affinity != "" && emit(true) {
		return
	}
	emit(false)
}
