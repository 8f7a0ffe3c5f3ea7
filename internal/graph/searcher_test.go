package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// oracleShortestPath is the allocate-per-call container/heap Dijkstra the
// Searcher replaced, kept verbatim (names aside) as the differential
// oracle: the Searcher must return the same edge sequence, not merely a
// path of the same weight, because the optimizer's determinism pins rest
// on which of several equal-delay paths is found.
func oracleShortestPath(g *Graph, src, dst NodeID, cons Constraints) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	n := g.NumNodes()
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return Path{}, false
	}

	dist := make([]float64, n)
	hops := make([]int, n)
	prev := make([]EdgeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0

	pq := &oracleHeap{items: []oracleItem{{node: src, dist: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(oracleItem)
		v := it.node
		if done[v] || it.dist > dist[v] {
			continue
		}
		done[v] = true
		if v == dst {
			break
		}
		for _, id := range g.out[v] {
			if cons.edgeExcluded(id) {
				continue
			}
			e := g.Edge(id)
			if e.To != dst && cons.nodeExcluded(e.To) {
				continue
			}
			nd := dist[v] + e.Weight
			if nd < dist[e.To] {
				dist[e.To] = nd
				hops[e.To] = hops[v] + 1
				prev[e.To] = id
				heap.Push(pq, oracleItem{node: e.To, dist: nd})
			}
		}
	}

	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	count := hops[dst]
	edges := make([]EdgeID, count)
	at := dst
	for i := count - 1; i >= 0; i-- {
		id := prev[at]
		edges[i] = id
		at = g.Edge(id).From
	}
	return Path{Edges: edges, Weight: dist[dst]}, true
}

type oracleItem struct {
	node NodeID
	dist float64
}

type oracleHeap struct{ items []oracleItem }

func (h *oracleHeap) Len() int           { return len(h.items) }
func (h *oracleHeap) Less(i, j int) bool { return h.items[i].dist < h.items[j].dist }
func (h *oracleHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *oracleHeap) Push(x interface{}) { h.items = append(h.items, x.(oracleItem)) }
func (h *oracleHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// tieGraph builds a bidirectional ring plus chords with small-integer
// weights in [0, maxW], so many routes tie — zero-weight cycles included
// — and the heap's pop order decides the path.
func tieGraph(rng *rand.Rand, n, chords, maxW int) *Graph {
	g := New(n)
	link := func(a, b NodeID) {
		w := float64(rng.Intn(maxW + 1))
		g.AddEdge(a, b, w)
		g.AddEdge(b, a, w)
	}
	for i := 0; i < n; i++ {
		link(NodeID(i), NodeID((i+1)%n))
	}
	for i := 0; i < chords; i++ {
		if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
			link(a, b)
		}
	}
	return g
}

func randomMask(rng *rand.Rand, n int, p float64) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = rng.Float64() < p
	}
	return m
}

// The tentpole's contract: one Searcher, reused across thousands of
// queries on graphs of varying size, returns exactly the oracle's path.
func TestSearcherMatchesHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Searcher
	queries := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(60)
		chords := rng.Intn(2 * n) // 0 chords: a pure ring
		g := tieGraph(rng, n, chords, 1+rng.Intn(3))
		for q := 0; q < 12; q++ {
			var cons Constraints
			switch rng.Intn(4) {
			case 1:
				cons.ExcludeEdges = randomMask(rng, g.NumEdges(), 0.15)
			case 2:
				cons.ExcludeNodes = randomMask(rng, n, 0.15)
			case 3:
				cons.ExcludeEdges = randomMask(rng, g.NumEdges()/2, 0.3) // short mask
				cons.ExcludeNodes = randomMask(rng, n, 0.1)
			}
			src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			want, wantOK := oracleShortestPath(g, src, dst, cons)
			got, gotOK := s.ShortestPath(g, src, dst, cons)
			queries++
			if gotOK != wantOK || got.Weight != want.Weight || !got.Equal(want) {
				t.Fatalf("trial %d query %d (%d->%d, n=%d): got %v %v ok=%v, oracle %v %v ok=%v",
					trial, q, src, dst, n, got.Edges, got.Weight, gotOK, want.Edges, want.Weight, wantOK)
			}
		}
	}
	if queries < 3000 {
		t.Fatalf("only %d queries", queries)
	}
}

// One tree must answer every destination exactly as that destination's
// own early-exit search does — same edges, same Weight bits — on rings,
// tie-heavy chorded graphs with zero-weight edges, and under excluded edge
// and node sets, from a Searcher that has just answered other queries. An
// excluded node is the one documented difference: a search admits its own
// destination, a tree does not reach it.
func TestTreeMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s, ref Searcher
	pairs := 0
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(40)
		chords := rng.Intn(2 * n) // 0 chords: a pure ring
		g := tieGraph(rng, n, chords, rng.Intn(4))
		var cons Constraints
		switch trial % 3 {
		case 1:
			cons.ExcludeEdges = randomMask(rng, g.NumEdges(), 0.2)
		case 2:
			cons.ExcludeEdges = randomMask(rng, g.NumEdges()/2, 0.3) // short mask
			cons.ExcludeNodes = randomMask(rng, n, 0.1)
		}
		src := NodeID(rng.Intn(n))
		s.ShortestPath(g, NodeID(rng.Intn(n)), src, cons) // dirty the scratch
		tree := s.ShortestPathTree(g, src, cons)
		for dst := NodeID(0); int(dst) < n; dst++ {
			got, gotOK := tree.Path(g, dst)
			if dst != src && cons.nodeExcluded(dst) {
				if gotOK {
					t.Fatalf("trial %d: tree reaches excluded node %d", trial, dst)
				}
				continue
			}
			want, wantOK := ref.ShortestPath(g, src, dst, cons)
			pairs++
			if gotOK != wantOK || math.Float64bits(got.Weight) != math.Float64bits(want.Weight) || !got.Equal(want) {
				t.Fatalf("trial %d (%d->%d, n=%d): tree %v %v ok=%v, search %v %v ok=%v",
					trial, src, dst, n, got.Edges, got.Weight, gotOK, want.Edges, want.Weight, wantOK)
			}
		}
	}
	if pairs < 2000 {
		t.Fatalf("only %d pairs", pairs)
	}
}

// minHeap must hand back equal keys in container/heap's order: that is
// what makes both Dijkstra's settle order and Yen's candidate order
// independent of the heap's implementation.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var mine minHeap
		ref := &oracleHeap{}
		for op := 0; op < 200; op++ {
			if len(mine) != ref.Len() {
				t.Fatalf("trial %d: lengths diverged", trial)
			}
			if len(mine) > 0 && rng.Intn(3) == 0 {
				got := mine.pop()
				want := heap.Pop(ref).(oracleItem)
				if got.dist != want.dist || NodeID(got.id) != want.node {
					t.Fatalf("trial %d op %d: popped (%v,%d), container/heap (%v,%d)",
						trial, op, got.dist, got.id, want.dist, want.node)
				}
				continue
			}
			d := float64(rng.Intn(4)) // few distinct keys: mostly ties
			mine.push(heapItem{dist: d, id: int32(op)})
			heap.Push(ref, oracleItem{node: NodeID(op), dist: d})
		}
	}
}

// A warm Searcher allocates only the returned edge list.
func TestSearcherAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tieGraph(rng, 80, 160, 5)
	exclude := randomMask(rng, g.NumEdges(), 0.1)
	var s Searcher
	for _, cons := range []Constraints{{}, {ExcludeEdges: exclude}} {
		src := 0
		search := func() {
			src = (src + 7) % 80
			s.ShortestPath(g, NodeID(src), NodeID((src+40)%80), cons)
		}
		for i := 0; i < 80; i++ {
			search() // warm the scratch on every pair the measurement visits
		}
		if avg := testing.AllocsPerRun(200, search); avg > 1 {
			t.Errorf("excluded edges %v: %.2f allocations per search on a warm Searcher, want <= 1", cons.ExcludeEdges != nil, avg)
		}
	}
}
