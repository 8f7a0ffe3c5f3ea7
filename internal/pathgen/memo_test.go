package pathgen

import (
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
// generator built for that one request does, under every policy knob.
func TestMemoAnswersMatchFreshGenerator(t *testing.T) {
	topo := heTopo(t)
	nL, nN := topo.NumLinks(), topo.NumNodes()
	policies := map[string]Policy{
		"open":      {},
		"forbidden": {ForbiddenLinks: ForbidLinks(topo, 3, 11, 40)},
		"bounded":   {MaxHops: 5, MaxDelay: 60 * unit.Millisecond, ForbiddenLinks: ForbidLinks(topo, 8)[:20]},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			long, err := New(topo, policy)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]bool, nL)
			used := make([]bool, nL)
			for i := 0; i < 6; i++ {
				all[rng.Intn(nL)] = true
			}
			pairs := make([][2]graph.NodeID, 12)
			for i := range pairs {
				pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(nN)), graph.NodeID(rng.Intn(nN))}
			}
			for step := 0; step < 400; step++ {
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
					fresh, err := New(topo, policy)
					if err != nil {
						t.Fatal(err)
					}
					got, want := long.Alternatives(req), fresh.Alternatives(req)
					if !sameAnswer(got.Global, got.HasGlobal, want.Global, want.HasGlobal) ||
						!sameAnswer(got.Local, got.HasLocal, want.Local, want.HasLocal) ||
						!sameAnswer(got.LinkLocal, got.HasLinkLocal, want.LinkLocal, want.HasLinkLocal) {
						t.Fatalf("step %d %v: long-lived generator %+v, fresh %+v", step, pr, got, want)
					}
					p, ok := long.LowestDelay(pr[0], pr[1])
					q, qok := fresh.LowestDelay(pr[0], pr[1])
					if !sameAnswer(p, ok, q, qok) {
						t.Fatalf("step %d %v: lowest delay %v/%v, fresh %v/%v", step, pr, p, ok, q, qok)
					}
				}
			}
			if sets, keys := len(long.setLinks), len(long.memo); keys >= 400*len(pairs) || sets >= keys {
				t.Errorf("memo did not dedupe: %d sets, %d keys for %d requests", sets, keys, 400*len(pairs)*4)
			}
		})
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
