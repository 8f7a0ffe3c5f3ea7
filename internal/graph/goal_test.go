package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// symmetricGraph builds a ring plus chords in which edge 2i+1 is edge 2i
// reversed, at the same weight. kind picks the weights: 0 draws integers
// 0–3 (ties everywhere, zero-weight edges and cycles), 1 multiples of 0.1
// (sums that depend on their order), 2 arbitrary reals.
func symmetricGraph(rng *rand.Rand, kind int) *Graph {
	n := 3 + rng.Intn(40)
	g := New(n)
	link := func(a, b NodeID) {
		var w float64
		switch kind {
		case 0:
			w = float64(rng.Intn(4))
		case 1:
			w = 0.1 * float64(1+rng.Intn(30))
		default:
			w = 10 * rng.Float64()
		}
		g.AddEdge(a, b, w)
		g.AddEdge(b, a, w)
	}
	for i := 0; i < n; i++ {
		link(NodeID(i), NodeID((i+1)%n))
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
			link(a, b)
		}
	}
	return g
}

// goalDirectedStats is what checkGoalDirected saw.
type goalDirectedStats struct {
	queries, researched, found int
	// settled by the goal-directed first passes, and by the plain searches
	settledGoal, settledPlain int64
}

// checkGoalDirected draws a forbidden set closed under reversal, takes
// every node's tree under it as the potential toward that node, and asks
// random queries under supersets of the forbidden set — random further
// edges, not closed under reversal, and now and then excluded nodes. The
// goal-directed search, re-searching when tied, must return what the plain
// search returns: edges, Weight bits, unique and ok.
func checkGoalDirected(g *Graph, rng *rand.Rand, queries int, st *goalDirectedStats) error {
	var s, plain Searcher
	n := g.NumNodes()
	forbidden := make([]bool, g.NumEdges())
	for id := 0; id < len(forbidden); id += 2 {
		if rng.Float64() < 0.1 {
			forbidden[id], forbidden[id+1] = true, true
		}
	}
	potentials := make([][]float64, n)
	for v := range potentials {
		potentials[v] = plain.ShortestPathTree(g, NodeID(v), Constraints{ExcludeEdges: forbidden}).Dist()
	}
	for q := 0; q < queries; q++ {
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		cons := Constraints{ExcludeEdges: append([]bool(nil), forbidden...)}
		p := 0.2 * rng.Float64()
		for id := range cons.ExcludeEdges {
			cons.ExcludeEdges[id] = cons.ExcludeEdges[id] || rng.Float64() < p
		}
		if rng.Intn(4) == 0 {
			cons.ExcludeNodes = randomMask(rng, n, 0.15)
		}
		h := potentials[dst]

		before := plain.Settled()
		want, wantUnique, wantOK := plain.ShortestPathUnique(g, src, dst, cons, nil, nil)
		st.settledPlain += plain.Settled() - before
		got, gotUnique, gotOK := s.ShortestPathUnique(g, src, dst, cons, h, nil)
		if gotOK != wantOK || gotUnique != wantUnique || !got.Equal(want) ||
			math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
			return fmt.Errorf("%d->%d (n=%d): goal-directed %v w=%v unique=%v ok=%v, plain %v w=%v unique=%v ok=%v",
				src, dst, n, got.Edges, got.Weight, gotUnique, gotOK, want.Edges, want.Weight, wantUnique, wantOK)
		}
		// The first pass alone, to count what it settles and how often
		// its answer was tied and searched again.
		if src != dst {
			before = s.Settled()
			s.dijkstra(g, src, dst, cons, h)
			st.settledGoal += s.Settled() - before
			if _, unique, ok := s.trace(g, src, dst); ok && !unique {
				st.researched++
			}
		}
		st.queries++
		if wantOK {
			st.found++
		}
	}
	return nil
}

// The goal-directed search against the plain one on 2,400 random symmetric
// graphs, a third of them each with integer, 0.1-multiple and real weights:
// every answer equal, bit for bit, tie flag included. Dropping the
// re-search of tied answers, the drain past dst or the skip of stale
// entries fails it, and so does a potential that is not a lower bound
// (tree distances ×1.5).
func TestGoalDirectedMatchesPlainSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var st goalDirectedStats
	for trial := 0; trial < 2400; trial++ {
		g := symmetricGraph(rng, trial%3)
		if err := checkGoalDirected(g, rng, 12, &st); err != nil {
			t.Fatalf("trial %d (weights %d): %v", trial, trial%3, err)
		}
	}
	t.Logf("%d queries (%d with a path), %d goal-directed answers tied and searched again; settled %d goal-directed, %d plain",
		st.queries, st.found, st.researched, st.settledGoal, st.settledPlain)
	if st.queries < 28000 || st.found < 20000 || st.researched < 2000 || st.settledGoal >= st.settledPlain {
		t.Fatalf("thin coverage: %+v", st)
	}
}

// FuzzGoalDirectedSearch is TestGoalDirectedMatchesPlainSearch on one
// graph the fuzzer's seed draws.
func FuzzGoalDirectedSearch(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		var st goalDirectedStats
		if err := checkGoalDirected(symmetricGraph(rng, int(kind%3)), rng, 40, &st); err != nil {
			t.Fatal(err)
		}
	})
}
