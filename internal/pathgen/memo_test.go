package pathgen

import (
	"fmt"
	"math"
	"math/rand"
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

// Memo exactness: a generator that has answered thousands of requests —
// slowly drifting congestion masks, so most requests repeat an earlier
// key, as consecutive optimizer steps do — must answer each exactly as a
// generator built for that one request does (whose one miss is a plain
// early-exit search), under every policy knob and whatever miss count
// grows a (src, exclusion set) pair's tree: first, second, the shipped
// one, never. The requests are an optimisation's: every aggregate's
// lowest-delay path first, then the alternatives trio for all of them
// under each step's congestion — many destinations per source, which is
// what the trees answer.
func TestMemoAnswersMatchFreshGenerator(t *testing.T) {
	topo := heTopo(t)
	nL, nN := topo.NumLinks(), topo.NumNodes()
	policies := map[string]Policy{
		"open":      {},
		"forbidden": {ForbiddenLinks: ForbidLinks(topo, 3, 11, 40)},
		"bounded":   {MaxHops: 5, MaxDelay: 60 * unit.Millisecond, ForbiddenLinks: ForbidLinks(topo, 8)[:20]},
	}
	const steps = 60
	for name, policy := range policies {
		for _, treeAfter := range []int32{1, 2, treeAfterMisses, math.MaxInt32} {
			t.Run(fmt.Sprintf("%s/tree-after-%d", name, treeAfter), func(t *testing.T) {
				rng := rand.New(rand.NewSource(17))
				long, err := New(topo, policy)
				if err != nil {
					t.Fatal(err)
				}
				long.treeAfter = treeAfter
				fresh := func() *Generator {
					g, err := New(topo, policy)
					if err != nil {
						t.Fatal(err)
					}
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
				for _, pr := range pairs {
					p, ok := long.LowestDelay(pr[0], pr[1])
					q, qok := fresh().LowestDelay(pr[0], pr[1])
					if !sameAnswer(p, ok, q, qok) {
						t.Fatalf("%v: lowest delay %v/%v, fresh %v/%v", pr, p, ok, q, qok)
					}
				}
				all := make([]bool, nL)
				used := make([]bool, nL)
				for i := 0; i < 6; i++ {
					all[rng.Intn(nL)] = true
				}
				for step := 0; step < steps; step++ {
					if step%4 == 0 { // the congestion set drifts by one link
						l := rng.Intn(nL)
						all[l] = !all[l]
					}
					for _, pr := range pairs {
						most := graph.EdgeID(-1)
						for l := range used {
							used[l] = all[l] && (l+int(pr[0]))%3 == 0
							if used[l] && most < 0 {
								most = graph.EdgeID(l)
							}
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
				grows := treeAfter != math.MaxInt32 && policy.MaxHops == 0
				if trees := len(long.trees); grows != (trees > 0) || trees > len(long.sources) {
					t.Errorf("%d trees over %d (src, set) pairs; trees expected: %v", trees, len(long.sources), grows)
				}
			})
		}
	}
}

// An avoid mask longer or shorter than the link count, and policy links
// beyond a short mask, land in the same exclusion set as the full mask.
func TestAvoidingMaskLengths(t *testing.T) {
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
	want, wantOK := g.Avoiding(0, 9, full)
	for name, mask := range map[string][]bool{"short": short, "long": long} {
		if p, ok := g.Avoiding(0, 9, mask); !sameAnswer(p, ok, want, wantOK) {
			t.Errorf("%s mask: %v/%v, full mask %v/%v", name, p.Edges, ok, want.Edges, wantOK)
		}
	}
	if len(g.setLinks) != 1 {
		t.Errorf("equivalent masks interned %d sets, want 1", len(g.setLinks))
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
	s := NewPathSet(0)
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
