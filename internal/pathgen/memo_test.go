package pathgen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

func heTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func sameAnswer(p graph.Path, ok bool, q graph.Path, qok bool) bool {
	return ok == qok && p.Weight == q.Weight && p.Equal(q)
}

// Two exclusion sets that collide on the fingerprint must still be told
// apart: the fingerprint only narrows the lookup, the links decide.
func TestInternVerifiesLinksNotFingerprint(t *testing.T) {
	g, err := New(fourSquare(t), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	const fp = 42
	a := g.intern(fp, []graph.EdgeID{1, 3})
	b := g.intern(fp, []graph.EdgeID{1, 4})
	c := g.intern(fp, []graph.EdgeID{1})
	if a == b || a == c || b == c {
		t.Fatalf("colliding sets share an id: %d %d %d", a, b, c)
	}
	if g.intern(fp, []graph.EdgeID{1, 3}) != a || g.intern(fp, []graph.EdgeID{1, 4}) != b {
		t.Error("re-interning a known set returned a new id")
	}
	// The interned copy must not alias the caller's (scratch) slice.
	links := []graph.EdgeID{2, 5}
	d := g.intern(fingerprint(links), links)
	links[1] = 6
	if g.intern(fingerprint(links), links) == d {
		t.Error("interned set followed a later write to the caller's slice")
	}
}

// minimumPaths counts, by enumerating every loop-free path from src to
// dst that avoids the links, how many have the least delay (summed from
// the source outward). It shares nothing with graph.Searcher.
func minimumPaths(topo *topology.Topology, src, dst graph.NodeID, avoid []graph.EdgeID) int {
	gr := topo.Graph()
	best, count := math.Inf(1), 0
	onPath := make([]bool, topo.NumNodes())
	var walk func(at graph.NodeID, w float64)
	walk = func(at graph.NodeID, w float64) {
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
		for id := range graph.EdgeID(gr.NumEdges()) {
			if e := gr.Edge(id); e.From == at && !onPath[e.To] && !slices.Contains(avoid, id) {
				walk(e.To, w+e.Weight)
			}
		}
		onPath[at] = false
	}
	walk(src, 0)
	return count
}

// oneWayWaxman is a Waxman graph with one more link, one way only: no
// longer every link has a reverse of equal delay.
func oneWayWaxman(t *testing.T) *topology.Topology {
	t.Helper()
	w, err := topology.Waxman(30, 0.3, 0.2, 100*unit.Mbps, 50*unit.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := topology.NewBuilder("waxman-one-way")
	for _, l := range w.Links() {
		if l.Reverse > l.ID {
			b.AddLink(w.NodeName(l.From), w.NodeName(l.To), l.Capacity, l.Delay)
		}
	}
	b.AddOneWayLink(w.NodeName(0), w.NodeName(17), 100*unit.Mbps, 3*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// Memo and donor exactness: a generator that has answered thousands of
// requests — slowly drifting congestion masks, so most requests repeat an
// earlier key, as consecutive optimizer steps do — must answer each
// exactly as a generator built for that one request does: one whose every
// lookup misses, has no narrower answer but its own trio's to draw on, no
// potential, and searches. That holds under every policy knob, with trees
// or without, with potentials or without, and on every kind of topology:
// real delays (HE-31, Waxman), where donors answer many lookups, equal
// delays (the 6-node ring, a unit grid), where most paths are tied and a
// donor must stand back rather than hand over whichever of two equal paths
// it happened to hold, and a Waxman graph with a one-way link. The requests
// are an optimisation's: every aggregate's lowest-delay path — both ways,
// so that every destination has a tree — and the alternatives trio for all
// of them under each step's congestion. tree-after-k puts that lowest-delay
// sweep, which builds the forbidden-set trees and with them the potentials,
// before the k-th step (1: first, as an optimisation does), so the memo
// holds plain answers beside goal-directed ones and donates either; never
// builds no tree. Every fifth request breaks the nesting the trio usually
// has — its used set holds a link its all set lacks — so a donor that
// assumed nesting instead of checking it would answer the wrong problem.
// The potentials change what a search settles and nothing else: every
// other counter agrees with and without them, and where no potential is
// a lower bound — the one-way link, a forbidden set not closed under
// reversal, a hop bound — or no tree exists, so does Settled.
func TestMemoAnswersMatchFreshGenerator(t *testing.T) {
	waxman, err := topology.Waxman(40, 0.25, 0.2, 100*unit.Mbps, 50*unit.Millisecond, 3)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(6, 0, 100*unit.Mbps, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := topology.Grid(4, 4, 100*unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	const never = math.MaxInt32
	for _, tc := range []struct {
		name      string
		topo      *topology.Topology
		tied      bool // equal delays: small enough to enumerate, too
		symmetric bool
	}{
		{"he31", heTopo(t), false, true}, {"waxman", waxman, false, true}, {"ring", ring, true, true},
		{"grid", grid, true, true}, {"one-way", oneWayWaxman(t), false, false},
	} {
		topo := tc.topo
		nL, nN := topo.NumLinks(), topo.NumNodes()
		link := func(i int) topology.LinkID { return topology.LinkID(i % nL) }
		oneWay := make([]bool, nL)
		oneWay[link(9)] = true
		policies := map[string]struct {
			policy Policy
			closed bool // under reversal
		}{
			"open":      {Policy{}, true},
			"forbidden": {Policy{ForbiddenLinks: ForbidLinks(topo, link(3), link(11), link(40))}, true},
			"half":      {Policy{ForbiddenLinks: oneWay}, false},
			"short":     {Policy{ForbiddenLinks: ForbidLinks(topo, link(8))[:nL/2]}, true},
		}
		const steps = 60
		for name, pc := range policies {
			policy := pc.policy
			for _, treeAfter := range []int{1, 2, 4, never} {
				run := func(t *testing.T, noPotentials bool) Stats {
					rng := rand.New(rand.NewSource(17))
					long, err := New(topo, policy)
					if err != nil {
						t.Fatal(err)
					}
					long.noTrees, long.noPotentials = treeAfter == never, noPotentials
					if goal := tc.symmetric && pc.closed; long.goal != goal {
						t.Fatalf("potentials admissible: %v, want %v", long.goal, goal)
					}
					fresh := func() *Generator {
						g, err := New(topo, policy)
						if err != nil {
							t.Fatal(err)
						}
						g.noPotentials = true
						return g
					}
					// 12 ingresses × 9 egresses, some pairs drawn twice.
					var pairs [][2]graph.NodeID
					for i := 0; i < 12; i++ {
						src := graph.NodeID(rng.Intn(nN))
						for j := 0; j < 9; j++ {
							pairs = append(pairs, [2]graph.NodeID{src, graph.NodeID(rng.Intn(nN))})
						}
					}
					sweep := func() {
						for _, pr := range pairs {
							for _, pr := range [][2]graph.NodeID{pr, {pr[1], pr[0]}} {
								p, ok := long.LowestDelay(pr[0], pr[1])
								q, qok := fresh().LowestDelay(pr[0], pr[1])
								if !sameAnswer(p, ok, q, qok) {
									t.Fatalf("%v: lowest delay %v/%v, fresh %v/%v", pr, p, ok, q, qok)
								}
							}
						}
					}
					all := make([]bool, nL)
					used := make([]bool, nL)
					for i := 0; i < min(6, nL/3); i++ {
						all[rng.Intn(nL)] = true
					}
					for step := 0; step < steps; step++ {
						if step == treeAfter-1 || step == 0 && treeAfter == never {
							sweep()
						}
						if step%4 == 0 { // the congestion set drifts by one link
							l := rng.Intn(nL)
							all[l] = !all[l]
						}
						for pi, pr := range pairs {
							most := graph.EdgeID(-1)
							for l := range used {
								used[l] = all[l] && (l+int(pr[0]))%3 == 0
								if used[l] && most < 0 {
									most = graph.EdgeID(l)
								}
							}
							if (step+pi)%5 == 0 {
								used[slices.Index(all, false)] = true // used ⊄ all
							}
							req := Request{Src: pr[0], Dst: pr[1], CongestedAll: all, CongestedUsed: used, MostCongested: most}
							got, want := long.Alternatives(req), fresh().Alternatives(req)
							if !sameAnswer(got.Global, got.HasGlobal, want.Global, want.HasGlobal) ||
								!sameAnswer(got.Local, got.HasLocal, want.Local, want.HasLocal) ||
								!sameAnswer(got.LinkLocal, got.HasLinkLocal, want.LinkLocal, want.HasLinkLocal) {
								t.Fatalf("step %d %v: long-lived generator %+v, fresh %+v", step, pr, got, want)
							}
						}
					}
					if sets, keys := len(long.setLinks), len(long.memo); keys >= steps*len(pairs) || sets >= keys {
						t.Errorf("memo did not dedupe: %d sets, %d keys for %d requests", sets, keys, steps*len(pairs)*3)
					}
					grows := treeAfter != never
					if trees := len(long.trees); grows != (trees > 0) || trees != len(long.sources) {
						t.Errorf("%d trees over %d (src, forbidden set) pairs; trees expected: %v", trees, len(long.sources), grows)
					}
					st := long.Stats()
					if st.Lookups != st.MemoHits+st.Donated+st.TreeAnswers+st.Searches || st.TreesBuilt != int64(len(long.trees)) {
						t.Errorf("counters do not add up: %+v with %d trees", st, len(long.trees))
					}
					if st.Donated == 0 {
						t.Errorf("no lookup was answered by a donor: %+v", st)
					}
					// Only a path that nothing ties may ever be handed on:
					// on the equal-delay topologies, count the minimum
					// paths behind every answer that carries the proof.
					proofs := 0
					for key, i := range long.memo {
						a := long.answers[i]
						if !a.unique {
							continue
						}
						proofs++
						if !tc.tied {
							continue
						}
						if n := minimumPaths(topo, key.src, key.dst, long.setLinks[key.set]); n != 1 {
							t.Fatalf("%v avoiding %v: answer %v marked unique, %d paths tie for the minimum",
								key, long.setLinks[key.set], a.path.Edges, n)
						}
					}
					if proofs == 0 {
						t.Error("no answer carries a uniqueness proof")
					}
					return st
				}
				t.Run(fmt.Sprintf("%s/%s/tree-after-%d", tc.name, name, treeAfter), func(t *testing.T) {
					var on, off Stats
					t.Run("potentials-on", func(t *testing.T) { on = run(t, false) })
					t.Run("potentials-off", func(t *testing.T) { off = run(t, true) })
					goal := tc.symmetric && pc.closed && treeAfter != never
					if (on.Settled != off.Settled) != goal || on.Settled == 0 {
						t.Errorf("settled %d with potentials, %d without; potentials expected: %v", on.Settled, off.Settled, goal)
					}
					on.Settled, off.Settled = 0, 0
					if on != off {
						t.Errorf("potentials changed how lookups were answered: %+v with, %+v without", on, off)
					}
				})
			}
		}
	}
}

// An avoid mask longer or shorter than the link count, and policy links
// beyond a short mask, land in the same exclusion set as the full mask.
func TestMaskLengths(t *testing.T) {
	topo := heTopo(t)
	nL := topo.NumLinks()
	policy := Policy{ForbiddenLinks: ForbidLinks(topo, topology.LinkID(nL-1))}
	g, err := New(topo, policy)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]bool, nL)
	full[2] = true
	short := full[:5]
	long := append(append([]bool(nil), full...), true, true)
	avoiding := func(mask []bool) (graph.Path, bool) {
		alts := g.Alternatives(Request{Src: 0, Dst: 9, CongestedAll: mask, MostCongested: -1})
		return alts.Global, alts.HasGlobal
	}
	want, wantOK := avoiding(full)
	for name, mask := range map[string][]bool{"short": short, "long": long} {
		if p, ok := avoiding(mask); !sameAnswer(p, ok, want, wantOK) {
			t.Errorf("%s mask: %v/%v, full mask %v/%v", name, p.Edges, ok, want.Edges, wantOK)
		}
	}
	if len(g.setLinks) != 2 { // the policy's own set and the mask's
		t.Errorf("equivalent masks interned %d sets, want 2", len(g.setLinks))
	}
	for _, e := range want.Edges {
		if e == 2 || policy.ForbiddenLinks[e] {
			t.Errorf("path uses excluded link %d", e)
		}
	}
}

// A memo hit allocates nothing: the optimizer's steady state, where a
// step asks again what the previous step asked.
func TestMemoHitAllocatesNothing(t *testing.T) {
	topo := heTopo(t)
	g, err := New(topo, Policy{ForbiddenLinks: ForbidLinks(topo, 4)})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]bool, topo.NumLinks())
	all[1], all[9], all[30] = true, true, true
	used := make([]bool, topo.NumLinks())
	used[9] = true
	req := Request{Src: 2, Dst: 17, CongestedAll: all, CongestedUsed: used, MostCongested: 9}
	ask := func() {
		g.Alternatives(req)
		g.LowestDelay(req.Src, req.Dst)
	}
	ask()
	if avg := testing.AllocsPerRun(100, ask); avg != 0 {
		t.Errorf("%.2f allocations per memoised Alternatives+LowestDelay, want 0", avg)
	}
}

// PathSet membership allocates nothing (it used to build a string key per
// call).
func TestPathSetMembershipAllocatesNothing(t *testing.T) {
	topo := heTopo(t)
	g, _ := New(topo, Policy{})
	paths := g.KLowestDelay(0, 20, 6)
	if len(paths) < 3 {
		t.Fatalf("only %d paths", len(paths))
	}
	s := NewPathSet(0, nil)
	for _, p := range paths[1:] {
		s.Add(p)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.IndexOf(paths[0])
		s.Contains(paths[2])
		s.Add(paths[1])
	}); avg != 0 {
		t.Errorf("%.2f allocations per IndexOf+Contains+Add(duplicate), want 0", avg)
	}
}
