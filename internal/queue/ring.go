package queue

// Ring links a closed cycle of SPSC queues, one per pipeline chunk edge,
// including the recycling edge from the last chunk back to the first
// (paper Sec. 3.4: "Once all chunks have processed a TaskObject, it is
// reset and pushed back to the first queue"). Edge i connects the output
// of chunk i to the input of chunk i+1 (mod n).
type Ring[T any] struct {
	edges []*SPSC[T]
}

// NewRing builds n edges of the given capacity. n must be >= 1.
func NewRing[T any](n, capacity int) *Ring[T] {
	if n < 1 {
		panic("queue: ring needs at least one edge")
	}
	edges := make([]*SPSC[T], n)
	for i := range edges {
		edges[i] = NewSPSC[T](capacity)
	}
	return &Ring[T]{edges: edges}
}

// Edges returns the number of edges in the ring.
func (r *Ring[T]) Edges() int { return len(r.edges) }

// In returns the queue chunk i pops from: the edge arriving at chunk i.
func (r *Ring[T]) In(i int) *SPSC[T] {
	n := len(r.edges)
	return r.edges[((i-1)%n+n)%n]
}

// Out returns the queue chunk i pushes to: the edge leaving chunk i.
func (r *Ring[T]) Out(i int) *SPSC[T] { return r.edges[i%len(r.edges)] }

// Prime seeds chunk 0's input edge with the initial TaskObjects
// (multi-buffering). It panics if the edge cannot hold them all, which
// indicates a capacity misconfiguration rather than a runtime condition.
func (r *Ring[T]) Prime(objs []T) {
	in := r.In(0)
	for _, o := range objs {
		if !in.TryPush(o) {
			panic("queue: ring prime overflow; increase edge capacity")
		}
	}
}

// Close closes every edge, releasing any blocked dispatcher.
func (r *Ring[T]) Close() {
	for _, e := range r.edges {
		e.Close()
	}
}
