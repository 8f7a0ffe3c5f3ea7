package graph

import (
	"math"
	"math/rand"
	"testing"
)

// minimumPaths enumerates every loop-free path from src to dst the
// constraints allow and returns the least weight among them — summed from
// the source outward, as the searches sum it — and how many paths weigh
// exactly that. It shares nothing with the Searcher.
func minimumPaths(g *Graph, src, dst NodeID, cons Constraints) (best float64, count int) {
	best = math.Inf(1)
	onPath := make([]bool, g.NumNodes())
	var walk func(at NodeID, w float64)
	walk = func(at NodeID, w float64) {
		if at == dst {
			switch {
			case w < best:
				best, count = w, 1
			case w == best:
				count++
			}
			return
		}
		onPath[at] = true
		for _, id := range g.out[at] {
			e := g.edges[id]
			if cons.edgeExcluded(id) || onPath[e.To] || (e.To != dst && cons.nodeExcluded(e.To)) {
				continue
			}
			walk(e.To, w+e.Weight)
		}
		onPath[at] = false
	}
	walk(src, 0)
	return best, count
}

// smallTieGraph is tieGraph at a size minimumPaths can enumerate, with
// weights drawn from [minW, maxW]: small integers, so sums are exact and
// many routes tie. Chords may repeat, which makes parallel edges.
func smallTieGraph(rng *rand.Rand, minW, maxW int) *Graph {
	n := 3 + rng.Intn(6)
	g := New(n)
	link := func(a, b NodeID) {
		w := float64(minW + rng.Intn(maxW-minW+1))
		g.AddEdge(a, b, w)
		g.AddEdge(b, a, w)
	}
	for i := 0; i < n; i++ {
		link(NodeID(i), NodeID((i+1)%n))
	}
	for i := rng.Intn(n + 1); i > 0; i-- {
		if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
			link(a, b)
		}
	}
	return g
}

func smallConstraints(rng *rand.Rand, g *Graph) Constraints {
	var cons Constraints
	switch rng.Intn(3) {
	case 1:
		cons.ExcludeEdges = randomMask(rng, g.NumEdges(), 0.15)
	case 2:
		cons.ExcludeEdges = randomMask(rng, g.NumEdges(), 0.1)
		cons.ExcludeNodes = randomMask(rng, g.NumNodes(), 0.1)
	}
	return cons
}

// The unique flag against brute force. Where every edge lengthens its
// path the flag is exact — set precisely when one path alone weighs the
// minimum — from the early-exit search and from the tree alike, which
// must therefore agree. With zero-weight edges a tie flag may also mark a
// detour through a zero-weight cycle, which is no rival path, so there the
// flag may only err towards "not unique": set, it still means one path.
func TestUniqueFlagMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name       string
		minW, maxW int
	}{
		{"positive", 1, 3},
		{"unit", 1, 1},
		{"zero-weight", 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			var s Searcher
			pairs, uniques, ties := 0, 0, 0
			for trial := 0; trial < 400; trial++ {
				g := smallTieGraph(rng, tc.minW, tc.maxW)
				cons := smallConstraints(rng, g)
				src := NodeID(rng.Intn(g.NumNodes()))
				tree := s.ShortestPathTree(g, src, cons)
				for dst := NodeID(0); int(dst) < g.NumNodes(); dst++ {
					if dst == src || cons.nodeExcluded(dst) {
						continue // a tree does not admit an excluded destination
					}
					best, count := minimumPaths(g, src, dst, cons)
					p, unique, ok := s.ShortestPathUnique(g, src, dst, cons, nil, nil)
					tp, tunique, tok := tree.PathUnique(g, dst, nil)
					pairs++
					if ok != (count > 0) || tok != ok {
						t.Fatalf("trial %d %d->%d: search ok=%v, tree ok=%v, %d paths exist", trial, src, dst, ok, tok, count)
					}
					if !ok {
						if unique || tunique {
							t.Fatalf("trial %d %d->%d: no path, yet unique", trial, src, dst)
						}
						continue
					}
					if p.Weight != best || tp.Weight != best || !p.Equal(tp) {
						t.Fatalf("trial %d %d->%d: search %v w=%v, tree %v w=%v, minimum %v",
							trial, src, dst, p.Edges, p.Weight, tp.Edges, tp.Weight, best)
					}
					if count == 1 {
						uniques++
					} else {
						ties++
					}
					if (unique || tunique) && count != 1 {
						t.Fatalf("trial %d %d->%d: flagged unique (search %v, tree %v) but %d paths weigh %v",
							trial, src, dst, unique, tunique, count, best)
					}
					if tc.minW > 0 && (unique != (count == 1) || tunique != unique) {
						t.Fatalf("trial %d %d->%d: search unique=%v, tree unique=%v, %d paths weigh %v",
							trial, src, dst, unique, tunique, count, best)
					}
				}
			}
			if pairs < 1500 || uniques < 200 || ties < 200 {
				t.Fatalf("thin coverage: %d pairs, %d with one minimum path, %d tied", pairs, uniques, ties)
			}
		})
	}
}

// What the flag is for: a unique answer under one exclusion set is the
// answer under any wider set it avoids — same edges, same Weight bits,
// from the early-exit search and from a tree — and "no path" under a set
// is "no path" under every wider one. Weights include zeros, ties and
// arbitrary floats; the wider search must never be needed.
func TestUniqueAnswerSurvivesWiderExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s, wide Searcher
	carried, refused, none := 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		n := 4 + rng.Intn(30)
		g := tieGraph(rng, n, rng.Intn(2*n), rng.Intn(4))
		if trial%3 == 0 { // arbitrary float delays: ties only by rounding
			for id := range g.edges {
				g.edges[id].Weight = 0.1 + 10*rng.Float64()
			}
		}
		narrow := Constraints{ExcludeEdges: randomMask(rng, g.NumEdges(), 0.1)}
		if trial%4 == 1 {
			narrow.ExcludeNodes = randomMask(rng, n, 0.1)
		}
		src := NodeID(rng.Intn(n))
		tree := s.ShortestPathTree(g, src, narrow)
		for q := 0; q < 6; q++ {
			dst := NodeID(rng.Intn(n))
			if dst == src || narrow.nodeExcluded(dst) {
				continue
			}
			p, unique, ok := s.ShortestPathUnique(g, src, dst, narrow, nil, nil)
			if q%2 == 1 {
				p, unique, ok = tree.PathUnique(g, dst, nil)
			}
			// Widen: everything narrow excludes, plus random edges off p.
			wider := Constraints{ExcludeEdges: append([]bool(nil), narrow.ExcludeEdges...), ExcludeNodes: narrow.ExcludeNodes}
			for id := range wider.ExcludeEdges {
				if !p.Contains(EdgeID(id)) && rng.Intn(4) == 0 {
					wider.ExcludeEdges[id] = true
				}
			}
			var got Path
			var gotOK bool
			if q < 3 {
				got, gotOK = wide.ShortestPath(g, src, dst, wider)
			} else {
				got, gotOK = wide.ShortestPathTree(g, src, wider).Path(g, dst)
			}
			switch {
			case !ok:
				none++
				if gotOK {
					t.Fatalf("trial %d %d->%d: no path under the narrow set, %v under the wider", trial, src, dst, got.Edges)
				}
			case unique:
				carried++
				if !gotOK || !got.Equal(p) || math.Float64bits(got.Weight) != math.Float64bits(p.Weight) {
					t.Fatalf("trial %d %d->%d: unique %v w=%v under the narrow set, %v w=%v ok=%v under the wider",
						trial, src, dst, p.Edges, p.Weight, got.Edges, got.Weight, gotOK)
				}
			default:
				refused++
			}
		}
	}
	if carried < 500 || refused < 200 || none < 20 {
		t.Fatalf("thin coverage: %d unique answers carried over, %d tied, %d without a path", carried, refused, none)
	}
}
