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
		if cons.MaxHops > 0 && hops[v] >= cons.MaxHops {
			continue
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

// The hop-bound counter-example: distance-only settling reaches node 2 by
// the light three-hop route first and then refuses to expand it, so the
// heavier two-hop route through 0->2 was never tried.
func TestShortestPathMaxHopsFindsHeavierShorterRoute(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	last := mustEdge(t, g, 2, 3, 1)
	direct := mustEdge(t, g, 0, 2, 5)
	p, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{MaxHops: 2})
	if !ok {
		t.Fatal("no path within 2 hops, but 0->2->3 exists")
	}
	if want := (Path{Edges: []EdgeID{direct, last}}); !p.Equal(want) || p.Weight != 6 {
		t.Errorf("got %v w=%v, want %v w=6", p.Edges, p.Weight, want.Edges)
	}
	if p, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{MaxHops: 3}); !ok || p.Weight != 3 {
		t.Errorf("MaxHops 3: got w=%v ok=%v, want the 3-hop route of weight 3", p.Weight, ok)
	}
	if _, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{MaxHops: 1}); ok {
		t.Error("MaxHops 1: found a path, none exists")
	}
}

// bruteForceBounded enumerates every loop-free path from src to dst of at
// most maxHops edges and returns the least weight, or +Inf.
func bruteForceBounded(g *Graph, src, dst NodeID, cons Constraints) float64 {
	best := math.Inf(1)
	onPath := make([]bool, g.NumNodes())
	var walk func(at NodeID, hops int, w float64)
	walk = func(at NodeID, hops int, w float64) {
		if at == dst {
			best = math.Min(best, w)
			return
		}
		if hops == cons.MaxHops {
			return
		}
		onPath[at] = true
		for _, id := range g.out[at] {
			e := g.Edge(id)
			if cons.edgeExcluded(id) || onPath[e.To] || (e.To != dst && cons.nodeExcluded(e.To)) {
				continue
			}
			walk(e.To, hops+1, w+e.Weight)
		}
		onPath[at] = false
	}
	walk(src, 0, 0)
	return best
}

// Property: under a hop bound the search returns a valid path within the
// bound whose weight is the minimum over all such paths.
func TestShortestPathMaxHopsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var s Searcher
	found, missing := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(7)
		g := tieGraph(rng, n, rng.Intn(2*n), 1+rng.Intn(6))
		cons := Constraints{MaxHops: 1 + rng.Intn(n)}
		if rng.Intn(2) == 0 {
			cons.ExcludeEdges = randomMask(rng, g.NumEdges(), 0.2)
		}
		if rng.Intn(3) == 0 {
			cons.ExcludeNodes = randomMask(rng, n, 0.2)
		}
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		want := bruteForceBounded(g, src, dst, cons)
		p, ok := s.ShortestPath(g, src, dst, cons)
		if !ok {
			if !math.IsInf(want, 1) {
				t.Fatalf("trial %d: no path, brute force found weight %v", trial, want)
			}
			missing++
			continue
		}
		found++
		if err := p.Validate(g, src, dst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if p.Len() > cons.MaxHops {
			t.Fatalf("trial %d: %d hops exceeds bound %d", trial, p.Len(), cons.MaxHops)
		}
		for _, id := range p.Edges {
			if e := g.Edge(id); cons.edgeExcluded(id) || (e.To != dst && cons.nodeExcluded(e.To)) {
				t.Fatalf("trial %d: path uses excluded edge or node", trial)
			}
		}
		if p.Weight != want || pathWeight(g, p.Edges) != want {
			t.Fatalf("trial %d: weight %v (edges sum %v), brute force %v",
				trial, p.Weight, pathWeight(g, p.Edges), want)
		}
	}
	if found < 100 || missing < 10 {
		t.Fatalf("weak coverage: %d found, %d infeasible", found, missing)
	}
}

// A warm Searcher allocates only the returned edge list.
func TestSearcherAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tieGraph(rng, 80, 160, 5)
	exclude := randomMask(rng, g.NumEdges(), 0.1)
	var s Searcher
	for _, cons := range []Constraints{{}, {ExcludeEdges: exclude}, {MaxHops: 6}} {
		src := 0
		search := func() {
			src = (src + 7) % 80
			s.ShortestPath(g, NodeID(src), NodeID((src+40)%80), cons)
		}
		for i := 0; i < 80; i++ {
			search() // warm the scratch on every pair the measurement visits
		}
		if avg := testing.AllocsPerRun(200, search); avg > 1 {
			t.Errorf("MaxHops %d: %.2f allocations per search on a warm Searcher, want <= 1", cons.MaxHops, avg)
		}
	}
}
