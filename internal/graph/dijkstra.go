package graph

import "math"

// Constraints restricts the paths a search may return. The zero value means
// "no restriction".
type Constraints struct {
	// ExcludeEdges, if non-nil, marks edges the path must not traverse.
	// Indexed by EdgeID; lengths shorter than NumEdges treat the tail as
	// not excluded.
	ExcludeEdges []bool
	// ExcludeNodes, if non-nil, marks nodes the path must not visit.
	// Source and destination are always allowed.
	ExcludeNodes []bool
}

func (c Constraints) edgeExcluded(id EdgeID) bool {
	return c.ExcludeEdges != nil && int(id) < len(c.ExcludeEdges) && c.ExcludeEdges[id]
}

func (c Constraints) nodeExcluded(n NodeID) bool {
	return c.ExcludeNodes != nil && int(n) < len(c.ExcludeNodes) && c.ExcludeNodes[n]
}

// Searcher is the shortest-path kernel: it owns the scratch every search
// needs, so a warm Searcher allocates nothing per search but the returned
// edge list. The zero value is ready to use and adapts to graphs of any
// size. A Searcher is not safe for concurrent use; give each goroutine
// its own.
type Searcher struct {
	// epoch stamps the node states the current search has written;
	// bumping it invalidates them all without an O(nodes) reset.
	epoch uint32
	nodes []nodeState
	heap  minHeap
	// settled counts the non-stale heap pops of every search so far.
	settled int64
}

// nodeState is one node's tentative distance and predecessor edge, valid
// only while seen equals the Searcher's epoch. tied records that the
// node's shortest path has a rival: a relaxation over another edge reached
// the same distance.
type nodeState struct {
	dist float64
	prev EdgeID
	seen uint32
	tied bool
}

// begin starts a new search over a graph with n nodes.
func (s *Searcher) begin(n int) {
	if len(s.nodes) < n {
		s.nodes = make([]nodeState, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		for i := range s.nodes {
			s.nodes[i].seen = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

// ShortestPath returns the minimum-weight path from src to dst subject to
// the constraints, and whether one exists. src==dst yields the empty path.
// The returned edge list is freshly allocated.
func (s *Searcher) ShortestPath(g *Graph, src, dst NodeID, cons Constraints) (Path, bool) {
	p, _, ok := s.ShortestPathUnique(g, src, dst, cons, nil)
	return p, ok
}

// ShortestPathUnique is ShortestPath plus a proof of uniqueness: unique
// reports that no node on the path was tied. Then the same search over any
// subgraph that still holds the path returns it again, edge for edge and
// Weight bit for bit: removing edges only raises distances (weights are
// non-negative and float addition is monotone), so an edge that ties a
// path node there tied it here, where every node as near as dst was
// settled and relaxed (see dijkstra). With zero weights a tie may be a
// detour round a zero-weight cycle, so false can be a missed proof; true
// is never a wrong one. The empty path carries none.
//
// A non-nil potential h steers the search toward dst (A*) and changes
// nothing in the answer. h must be a consistent lower bound on the
// distance to dst under cons — h[u] <= weight(u→v) + h[v] on every edge,
// h[dst] = 0, +Inf only where dst is unreachable — up to the rounding
// dijkstra absorbs. Every edge able to tie a node of the path is then
// relaxed, as without h, so an untied answer is the plain search's; a
// tied one is searched again without h, since which of two equal paths a
// search keeps depends on its pop order.
func (s *Searcher) ShortestPathUnique(g *Graph, src, dst NodeID, cons Constraints, h []float64) (p Path, unique, ok bool) {
	if src == dst {
		return Path{}, false, true
	}
	n := g.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return Path{}, false, false
	}
	s.dijkstra(g, src, dst, cons, h)
	hops, unique, ok := s.trace(g, src, dst)
	if h != nil && ok && !unique {
		s.dijkstra(g, src, dst, cons, nil)
		hops, unique, ok = s.trace(g, src, dst)
	}
	if !ok {
		return Path{}, false, false
	}
	edges := make([]EdgeID, hops)
	for at, i := dst, hops-1; i >= 0; i-- {
		edges[i] = s.nodes[at].prev
		at = g.edges[edges[i]].From
	}
	return Path{Edges: edges, Weight: s.nodes[dst].dist}, unique, true
}

// trace walks the last search's predecessors from dst back to src: the
// path's hop count, and whether no node on it is tied.
func (s *Searcher) trace(g *Graph, src, dst NodeID) (hops int, unique, ok bool) {
	if s.nodes[dst].seen != s.epoch {
		return 0, false, false
	}
	unique = true
	for at := dst; at != src; at = g.edges[s.nodes[at].prev].From {
		unique = unique && !s.nodes[at].tied
		hops++
	}
	return hops, unique, true
}

// Settled counts the nodes the Searcher's searches and trees have settled.
func (s *Searcher) Settled() int64 { return s.settled }

// Tree is a shortest-path tree rooted at one source: for every node, the
// edge it is entered by on its minimum-weight path from the source and that
// path's weight, plus the search's tie flag — 13 bytes a node. A path's hop
// count comes back from the walk that rebuilds it. A Tree is immutable and
// independent of the Searcher that built it.
type Tree struct {
	src NodeID
	// prev[v] is the edge entering v, or -1 at the source and at nodes the
	// search did not reach.
	prev []int32
	// dist[v] is v's distance from the source, +Inf where unreached.
	dist []float64
	// tied[v] is the search's nodeState.tied for v.
	tied []bool
}

// ShortestPathTree settles every node reachable from src under the edge
// and node exclusions and returns the predecessor tree. It is the search
// ShortestPath runs, minus the early exit at a destination, so one tree
// answers every destination the way its own search would (see Tree.Path).
func (s *Searcher) ShortestPathTree(g *Graph, src NodeID, cons Constraints) Tree {
	n := g.NumNodes()
	t := Tree{src: src}
	if int(src) < 0 || int(src) >= n {
		return t
	}
	s.dijkstra(g, src, -1, cons, nil)
	t.prev = make([]int32, n)
	t.dist = make([]float64, n)
	t.tied = make([]bool, n)
	for i := range t.prev {
		t.prev[i], t.dist[i] = -1, math.Inf(1)
		if st := &s.nodes[i]; st.seen == s.epoch {
			t.prev[i], t.dist[i] = int32(st.prev), st.dist
			t.tied[i] = st.tied
		}
	}
	return t
}

// Dist returns the tree's own (read-only) distances from its source.
func (t Tree) Dist() []float64 { return t.dist }

// Path returns the tree's path to dst and whether dst is reachable;
// dst equal to the source yields the empty path. It is ShortestPath's
// answer for the same source and constraints bit for bit, edges and
// Weight, for every dst outside ExcludeNodes (a search admits its own
// destination; a tree has none to admit). Both searches pop the same
// sequence until dst settles, and nothing later can rewrite a settled
// node or its ancestors: only a strictly smaller distance replaces a
// predecessor, and every later pop is at least as far. Weight is the
// distance the search reached dst at. The returned edge list is freshly
// allocated.
func (t Tree) Path(g *Graph, dst NodeID) (Path, bool) {
	p, _, ok := t.PathUnique(g, dst)
	return p, ok
}

// PathUnique is Path plus ShortestPathUnique's proof, read off the tie
// flags the tree kept — the flags the early-exit search raises on the
// path's nodes, whenever every edge lengthens its path.
func (t Tree) PathUnique(g *Graph, dst NodeID) (p Path, unique, ok bool) {
	if dst == t.src {
		return Path{}, false, true
	}
	if int(dst) < 0 || int(dst) >= len(t.prev) || t.prev[dst] < 0 {
		return Path{}, false, false
	}
	hops := 0
	unique = true
	for at := dst; at != t.src; at = g.edges[t.prev[at]].From {
		unique = unique && !t.tied[at]
		hops++
	}
	edges := make([]EdgeID, hops)
	for at, i := dst, hops-1; i >= 0; i-- {
		id := EdgeID(t.prev[at])
		edges[i] = id
		at = g.edges[id].From
	}
	return Path{Edges: edges, Weight: t.dist[dst]}, unique, true
}

// dijkstra settles nodes in distance order from src until dst is settled
// (dst < 0: until every reachable node is), leaving the result in the
// epoch-stamped node states. Ties pop in container/heap order, which is
// what keeps every path identical to the boxed-heap search this replaced.
// Once dst settles the search still settles whatever else sits at exactly
// dst's distance — usually nothing — so that every edge able to tie a node
// of dst's path has been relaxed and the tie flags on that path are final;
// none of it can rewrite a settled node. A potential h keys the heap on
// distance plus h, skips the nodes h rules out, and settles 1e-9 past dst
// (relatively): h sums the same weights in another order, so it may miss
// a lower bound by a few ulps. A node whose distance falls after it
// settled is settled again.
func (s *Searcher) dijkstra(g *Graph, src, dst NodeID, cons Constraints, h []float64) {
	s.begin(g.NumNodes())
	s.nodes[src] = nodeState{prev: -1, seen: s.epoch}
	s.heap.push(heapItem{id: int32(src)})
	limit := math.Inf(1)
	for len(s.heap) > 0 && s.heap[0].dist <= limit {
		it := s.heap.pop()
		v := NodeID(it.id)
		d, key := s.nodes[v].dist, s.nodes[v].dist
		if h != nil {
			key += h[v]
		}
		// A node is pushed only on a strict improvement, so every entry
		// but its latest is stale.
		if it.dist > key {
			continue
		}
		s.settled++
		if v == dst {
			limit = it.dist
			if h != nil {
				limit += limit * 1e-9
			}
			continue
		}
		for _, id := range g.out[v] {
			if cons.edgeExcluded(id) {
				continue
			}
			e := &g.edges[id]
			if e.To != dst && cons.nodeExcluded(e.To) {
				continue
			}
			nd := d + e.Weight
			to := &s.nodes[e.To]
			if to.seen != s.epoch || nd < to.dist {
				key := nd
				if h != nil {
					if key += h[e.To]; math.IsInf(key, 1) {
						continue
					}
				}
				*to = nodeState{dist: nd, prev: id, seen: s.epoch}
				s.heap.push(heapItem{dist: key, id: int32(e.To)})
			} else if nd == to.dist {
				to.tied = true
			}
		}
	}
}

// heapItem is a min-heap entry: a node (Dijkstra) or candidate index
// (Yen) keyed by its distance.
type heapItem struct {
	dist float64
	id   int32
}

// minHeap is a binary min-heap on dist. push and pop make exactly the
// comparisons and moves container/heap's up and down make under
// Less(i, j) = dist[i] < dist[j], so equal keys leave in the same order
// they would there — without boxing every entry into an interface.
type minHeap []heapItem

func (h *minHeap) push(it heapItem) {
	a := append(*h, it)
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(it.dist < a[i].dist) {
			break
		}
		a[j] = a[i]
		j = i
	}
	a[j] = it
	*h = a
}

func (h *minHeap) pop() heapItem {
	a := *h
	n := len(a) - 1
	top, it := a[0], a[n]
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && a[r].dist < a[j].dist {
			j = r
		}
		if !(a[j].dist < it.dist) {
			break
		}
		a[i] = a[j]
		i = j
	}
	a[i] = it
	*h = a[:n]
	return top
}
