package graph

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// diamond builds the classic 4-node diamond:
//
//	0 -> 1 -> 3  (weights 1 + 1)
//	0 -> 2 -> 3  (weights 2 + 2)
//	plus a direct 0 -> 3 with weight 5.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New(4)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 3, 1)
	mustEdge(t, g, 0, 2, 2)
	mustEdge(t, g, 2, 3, 2)
	mustEdge(t, g, 0, 3, 5)
	return g
}

func mustEdge(t *testing.T, g *Graph, from, to NodeID, w float64) EdgeID {
	t.Helper()
	id, err := g.AddEdge(from, to, w)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%v): %v", from, to, w, err)
	}
	return id
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(2)
	if _, err := g.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddEdge(0, 5, 1); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := g.AddEdge(-1, 0, 1); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := g.AddEdge(0, 1, -3); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := g.AddEdge(0, 1, 1); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New(2)
	id := mustEdge(t, g, 0, 1, 1)
	c := g.Clone()
	g.edges[id].Weight = 7
	if c.Edge(id).Weight != 1 {
		t.Error("clone shares edge storage with original")
	}
	mustEdge(t, c, 1, 0, 2)
	if g.NumEdges() != 1 {
		t.Error("adding to clone mutated original adjacency")
	}
}

func TestConnected(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	if g.Connected() {
		t.Error("disconnected graph reported connected")
	}
	mustEdge(t, g, 1, 2, 1)
	if !g.Connected() {
		t.Error("connected graph reported disconnected")
	}
	if !New(0).Connected() {
		t.Error("empty graph should be connected")
	}
}

func TestShortestPathBasic(t *testing.T) {
	g := diamond(t)
	p, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{})
	if !ok {
		t.Fatal("no path found")
	}
	if p.Weight != 2 {
		t.Errorf("weight = %v, want 2", p.Weight)
	}
	nodes := p.Nodes(g)
	want := []NodeID{0, 1, 3}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
	if err := p.Validate(g, 0, 3); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := diamond(t)
	p, ok := new(Searcher).ShortestPath(g, 2, 2, Constraints{})
	if !ok || !p.Empty() || p.Weight != 0 {
		t.Errorf("src==dst: got %+v ok=%v, want empty path", p, ok)
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	if _, ok := new(Searcher).ShortestPath(g, 1, 0, Constraints{}); ok {
		t.Error("found path against edge direction")
	}
	if _, ok := new(Searcher).ShortestPath(g, 0, 2, Constraints{}); ok {
		t.Error("found path to isolated node")
	}
	if _, ok := new(Searcher).ShortestPath(g, 0, 99, Constraints{}); ok {
		t.Error("found path to out-of-range node")
	}
}

func TestShortestPathExcludeEdge(t *testing.T) {
	g := diamond(t)
	// Exclude edge 0 (0->1): forces the 0->2->3 route, weight 4.
	ex := make([]bool, g.NumEdges())
	ex[0] = true
	p, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{ExcludeEdges: ex})
	if !ok {
		t.Fatal("no path found")
	}
	if p.Weight != 4 {
		t.Errorf("weight = %v, want 4", p.Weight)
	}
	// Exclude both two-hop routes: only the direct link remains.
	ex[0], ex[2] = true, true
	p, ok = new(Searcher).ShortestPath(g, 0, 3, Constraints{ExcludeEdges: ex})
	if !ok || p.Weight != 5 || p.Len() != 1 {
		t.Errorf("got %+v ok=%v, want the direct 0->3 link", p, ok)
	}
}

func TestShortestPathExcludeNode(t *testing.T) {
	g := diamond(t)
	exn := make([]bool, g.NumNodes())
	exn[1] = true
	p, ok := new(Searcher).ShortestPath(g, 0, 3, Constraints{ExcludeNodes: exn})
	if !ok {
		t.Fatal("no path found")
	}
	for _, n := range p.Nodes(g) {
		if n == 1 {
			t.Error("path visits excluded node 1")
		}
	}
}

func TestShortestPathTree(t *testing.T) {
	g := diamond(t)
	tree := new(Searcher).ShortestPathTree(g, 0, Constraints{})
	want := []float64{0, 1, 2, 2}
	for i, w := range want {
		p, ok := tree.Path(g, NodeID(i))
		if !ok || p.Weight != w {
			t.Errorf("path to %d: weight %v ok=%v, want %v", i, p.Weight, ok, w)
		}
		if err := p.Validate(g, 0, NodeID(i)); i != 0 && err != nil {
			t.Errorf("path to %d: %v", i, err)
		}
	}
	if _, ok := new(Searcher).ShortestPathTree(g, 3, Constraints{}).Path(g, 0); ok {
		t.Error("node 0 is unreachable from the sink")
	}
	if _, ok := new(Searcher).ShortestPathTree(g, 99, Constraints{}).Path(g, 0); ok {
		t.Error("a tree from a node outside the graph reaches nothing")
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := diamond(t)
	paths := new(Searcher).KShortestPaths(g, 0, 3, 5, Constraints{})
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantWeights := []float64{2, 4, 5}
	for i, w := range wantWeights {
		if paths[i].Weight != w {
			t.Errorf("path %d weight = %v, want %v", i, paths[i].Weight, w)
		}
		if err := paths[i].Validate(g, 0, 3); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
	}
	// All distinct.
	seen := map[string]bool{}
	for _, p := range paths {
		if seen[p.Key()] {
			t.Errorf("duplicate path %s", p.Key())
		}
		seen[p.Key()] = true
	}
}

func TestKShortestPathsRespectsK(t *testing.T) {
	g := diamond(t)
	paths := new(Searcher).KShortestPaths(g, 0, 3, 2, Constraints{})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].Weight > paths[1].Weight {
		t.Error("paths not sorted by weight")
	}
}

func TestKShortestPathsEdgeCases(t *testing.T) {
	g := diamond(t)
	if p := new(Searcher).KShortestPaths(g, 0, 3, 0, Constraints{}); p != nil {
		t.Error("k=0 should return nil")
	}
	if p := new(Searcher).KShortestPaths(g, 1, 1, 3, Constraints{}); p != nil {
		t.Error("src==dst should return nil")
	}
	if p := new(Searcher).KShortestPaths(g, 3, 0, 3, Constraints{}); p != nil {
		t.Error("unreachable dst should return nil")
	}
}

func TestKShortestPathsWithConstraints(t *testing.T) {
	g := diamond(t)
	ex := make([]bool, g.NumEdges())
	ex[4] = true // drop direct 0->3
	paths := new(Searcher).KShortestPaths(g, 0, 3, 5, Constraints{ExcludeEdges: ex})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if p.Contains(4) {
			t.Error("path uses excluded edge")
		}
	}
}

// randomGraph builds a random strongly-ish connected graph: a directed ring
// guarantees reachability, plus chords.
func randomGraph(rng *rand.Rand, n, chords int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*9)
	}
	for i := 0; i < chords; i++ {
		a := NodeID(rng.Intn(n))
		b := NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(a, b, 1+rng.Float64()*9)
		}
	}
	return g
}

// Property: a shortest path validates, and no single-edge relaxation can
// improve it (Bellman condition spot check on the endpoints).
func TestShortestPathProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(20)
		g := randomGraph(rng, n, n*2)
		src := NodeID(rng.Intn(n))
		dst := NodeID(rng.Intn(n))
		p, ok := new(Searcher).ShortestPath(g, src, dst, Constraints{})
		if src == dst {
			if !ok || !p.Empty() {
				t.Fatal("src==dst must give the empty path")
			}
			continue
		}
		if !ok {
			t.Fatalf("ring graph must be connected (trial %d)", trial)
		}
		if err := p.Validate(g, src, dst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tp, ok := new(Searcher).ShortestPathTree(g, src, Constraints{}).Path(g, dst)
		if !ok || tp.Weight != p.Weight || !tp.Equal(p) {
			t.Fatalf("trial %d: tree path %v (%v) != searched path %v (%v)", trial, tp.Edges, tp.Weight, p.Edges, p.Weight)
		}
	}
}

// Property: KShortestPaths yields distinct, valid, sorted paths and the
// first equals the Dijkstra shortest path's weight.
func TestKShortestPathsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(10)
		g := randomGraph(rng, n, n*3)
		src := NodeID(rng.Intn(n))
		dst := NodeID((int(src) + 1 + rng.Intn(n-1)) % n)
		paths := new(Searcher).KShortestPaths(g, src, dst, 6, Constraints{})
		if len(paths) == 0 {
			t.Fatalf("trial %d: no paths in connected graph", trial)
		}
		sp, _ := new(Searcher).ShortestPath(g, src, dst, Constraints{})
		if paths[0].Weight-sp.Weight > 1e-9 {
			t.Fatalf("trial %d: first K-path weight %v > shortest %v", trial, paths[0].Weight, sp.Weight)
		}
		seen := map[string]bool{}
		last := -1.0
		for i, p := range paths {
			if err := p.Validate(g, src, dst); err != nil {
				t.Fatalf("trial %d path %d: %v", trial, i, err)
			}
			if seen[p.Key()] {
				t.Fatalf("trial %d: duplicate path", trial)
			}
			seen[p.Key()] = true
			if p.Weight < last-1e-9 {
				t.Fatalf("trial %d: paths not sorted", trial)
			}
			last = p.Weight
		}
	}
}

// Property: searching under Constraints answers as searching a graph from
// which the excluded edges, and every edge at an excluded node, were
// removed — for one shortest path and for Yen's K, whose spur searches
// stack their own exclusions on the caller's.
func TestConstraintsMatchPrunedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type trial struct {
		g, pruned *Graph
		orig      []EdgeID // pruned edge -> g's edge
		cons      Constraints
		src, dst  NodeID
	}
	var trials []trial
	for len(trials) < 40 {
		n := 6 + rng.Intn(10)
		g := randomGraph(rng, n, n*3)
		src := NodeID(rng.Intn(n))
		dst := NodeID((int(src) + 1 + rng.Intn(n-1)) % n)
		cons := Constraints{ExcludeEdges: make([]bool, g.NumEdges()), ExcludeNodes: make([]bool, n)}
		for e := range cons.ExcludeEdges {
			cons.ExcludeEdges[e] = rng.Intn(5) == 0
		}
		for v := range cons.ExcludeNodes {
			cons.ExcludeNodes[v] = NodeID(v) != src && NodeID(v) != dst && rng.Intn(8) == 0
		}
		pruned, orig := New(n), []EdgeID(nil)
		for e := range g.NumEdges() {
			ed := g.Edge(EdgeID(e))
			if !cons.ExcludeEdges[e] && !cons.ExcludeNodes[ed.From] && !cons.ExcludeNodes[ed.To] {
				mustEdge(t, pruned, ed.From, ed.To, ed.Weight)
				orig = append(orig, EdgeID(e))
			}
		}
		trials = append(trials, trial{g, pruned, orig, cons, src, dst})
	}
	same := func(p, q Path, orig []EdgeID) bool {
		if p.Weight != q.Weight || len(p.Edges) != len(q.Edges) {
			return false
		}
		for i, e := range q.Edges {
			if p.Edges[i] != orig[e] {
				return false
			}
		}
		return true
	}
	t.Run("shortest-path", func(t *testing.T) {
		unreachable := 0
		for i, tr := range trials {
			p, ok := new(Searcher).ShortestPath(tr.g, tr.src, tr.dst, tr.cons)
			q, qok := new(Searcher).ShortestPath(tr.pruned, tr.src, tr.dst, Constraints{})
			if ok != qok || ok && !same(p, q, tr.orig) {
				t.Fatalf("trial %d: constrained %v/%v, pruned %v/%v", i, p, ok, q, qok)
			}
			if !ok {
				unreachable++
			}
		}
		if unreachable == len(trials) {
			t.Fatal("no trial had a path")
		}
	})
	t.Run("k-shortest", func(t *testing.T) {
		for i, tr := range trials {
			ps := new(Searcher).KShortestPaths(tr.g, tr.src, tr.dst, 6, tr.cons)
			qs := new(Searcher).KShortestPaths(tr.pruned, tr.src, tr.dst, 6, Constraints{})
			if len(ps) != len(qs) {
				t.Fatalf("trial %d: %d constrained paths, %d pruned", i, len(ps), len(qs))
			}
			for j := range ps {
				if !same(ps[j], qs[j], tr.orig) {
					t.Fatalf("trial %d path %d: constrained %v, pruned %v", i, j, ps[j], qs[j])
				}
			}
		}
	})
}

// Property (testing/quick): excluding the edges of the shortest path yields
// either no path or one at least as heavy.
func TestExclusionMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		g := randomGraph(rng, n, n*2)
		src := NodeID(rng.Intn(n))
		dst := NodeID((int(src) + 1) % n)
		p, ok := new(Searcher).ShortestPath(g, src, dst, Constraints{})
		if !ok {
			return true
		}
		ex := make([]bool, g.NumEdges())
		for _, e := range p.Edges {
			ex[e] = true
		}
		q, ok := new(Searcher).ShortestPath(g, src, dst, Constraints{ExcludeEdges: ex})
		return !ok || q.Weight >= p.Weight-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPathHelpers(t *testing.T) {
	g := diamond(t)
	p, _ := new(Searcher).ShortestPath(g, 0, 3, Constraints{})
	if !p.Contains(p.Edges[0]) {
		t.Error("Contains(first edge) = false")
	}
	if p.Contains(99) {
		t.Error("Contains(bogus) = true")
	}
	if !p.Equal(p) {
		t.Error("path not Equal to itself")
	}
	q, _ := new(Searcher).ShortestPath(g, 0, 2, Constraints{})
	if p.Equal(q) {
		t.Error("distinct paths reported Equal")
	}
	if p.Key() == q.Key() {
		t.Error("distinct paths share Key")
	}
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := diamond(t)
	p, _ := new(Searcher).ShortestPath(g, 0, 3, Constraints{})
	bad := Path{Edges: []EdgeID{p.Edges[1], p.Edges[0]}} // reversed order
	if err := bad.Validate(g, 0, 3); err == nil {
		t.Error("reversed edge order validated")
	}
	if err := (Path{}).Validate(g, 0, 3); err == nil {
		t.Error("empty path validated for src!=dst")
	}
	if err := (Path{}).Validate(g, 2, 2); err != nil {
		t.Errorf("empty path for src==dst rejected: %v", err)
	}
}

func TestPathKey(t *testing.T) {
	for _, c := range []struct {
		edges []EdgeID
		want  string
	}{
		{nil, ""},
		{[]EdgeID{7}, "7"},
		{[]EdgeID{1, 23}, "1,23"},
		{[]EdgeID{12, 3}, "12,3"},
	} {
		if got := (Path{Edges: c.edges}).Key(); got != c.want {
			t.Errorf("Key(%v) = %q, want %q", c.edges, got, c.want)
		}
	}
	// A key longer than the stack buffer is still the whole sequence.
	var long Path
	var parts []string
	for i := 0; i < 40; i++ {
		long.Edges = append(long.Edges, EdgeID(1000+i))
		parts = append(parts, strconv.Itoa(1000+i))
	}
	if got, want := long.Key(), strings.Join(parts, ","); got != want {
		t.Errorf("long Key = %q, want %q", got, want)
	}
}

func TestValidateRejectsLoopsAndWrongEnd(t *testing.T) {
	g := New(3)
	ab := mustEdge(t, g, 0, 1, 1)
	ba := mustEdge(t, g, 1, 0, 1)
	bc := mustEdge(t, g, 1, 2, 1)
	if err := (Path{Edges: []EdgeID{ab, bc}}).Validate(g, 0, 2); err != nil {
		t.Fatalf("simple path rejected: %v", err)
	}
	if err := (Path{Edges: []EdgeID{ab, ba, ab, bc}}).Validate(g, 0, 2); err == nil {
		t.Error("path through a loop validated")
	}
	if err := (Path{Edges: []EdgeID{ab, ba}}).Validate(g, 0, 0); err == nil {
		t.Error("cycle back to the source validated")
	}
	if err := (Path{Edges: []EdgeID{ab}}).Validate(g, 0, 2); err == nil {
		t.Error("path ending short of dst validated")
	}
	if err := (Path{Edges: []EdgeID{bc}}).Validate(g, 0, 2); err == nil {
		t.Error("path not starting at src validated")
	}
	if got := (Path{Edges: []EdgeID{ab, bc}}).Nodes(g); !slices.Equal(got, []NodeID{0, 1, 2}) {
		t.Errorf("Nodes = %v, want [0 1 2]", got)
	}
	if got := (Path{}).Nodes(g); got != nil {
		t.Errorf("empty path Nodes = %v, want nil", got)
	}
}
