package pathgen

import (
	"slices"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// fourSquare builds a 4-node square with a diagonal:
//
//	A--B (10ms), B--D (10ms), A--C (20ms), C--D (20ms), A--D (50ms direct)
func fourSquare(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("sq")
	b.AddLink("A", "B", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("B", "D", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 20*unit.Millisecond)
	b.AddLink("C", "D", 100*unit.Mbps, 20*unit.Millisecond)
	b.AddLink("A", "D", 100*unit.Mbps, 50*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func nodeID(t *testing.T, topo *topology.Topology, name string) graph.NodeID {
	t.Helper()
	id := slices.Index(topo.NodeNames(), name)
	if id < 0 {
		t.Fatalf("node %q", name)
	}
	return graph.NodeID(id)
}

func linkID(t *testing.T, topo *topology.Topology, from, to string) graph.EdgeID {
	t.Helper()
	for _, l := range topo.Links() {
		if topo.NodeName(l.From) == from && topo.NodeName(l.To) == to {
			return l.ID
		}
	}
	t.Fatalf("link %s->%s", from, to)
	return -1
}

func TestNewValidation(t *testing.T) {
	topo := fourSquare(t)
	if _, err := New(nil, Policy{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(topo, Policy{ForbiddenLinks: make([]bool, 100)}); err == nil {
		t.Error("oversized ForbiddenLinks accepted")
	}
}

func TestLowestDelay(t *testing.T) {
	topo := fourSquare(t)
	g, err := New(topo, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	p, ok := g.LowestDelay(a, d)
	if !ok {
		t.Fatal("no path")
	}
	if got := topo.PathDelay(p); got != 20*unit.Millisecond {
		t.Errorf("lowest delay = %v, want 20ms (A-B-D)", got)
	}
	// Cached: second call returns the same value.
	p2, ok2 := g.LowestDelay(a, d)
	if !ok2 || !p.Equal(p2) {
		t.Error("cache returned a different path")
	}
	// src==dst.
	pe, ok := g.LowestDelay(a, a)
	if !ok || !pe.Empty() {
		t.Error("self path should be empty")
	}
}

func TestAlternativesTrio(t *testing.T) {
	topo := fourSquare(t)
	g, _ := New(topo, Policy{})
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")

	ab := linkID(t, topo, "A", "B")
	ac := linkID(t, topo, "A", "C")

	// Scenario: A->B congested (used by our aggregate) and A->C congested
	// (used by someone else).
	all := make([]bool, topo.NumLinks())
	all[ab], all[ac] = true, true
	used := make([]bool, topo.NumLinks())
	used[ab] = true

	alts := g.Alternatives(Request{
		Src: a, Dst: d,
		CongestedAll:  all,
		CongestedUsed: used,
		MostCongested: ab,
	})
	if !alts.HasGlobal || !alts.HasLocal || !alts.HasLinkLocal {
		t.Fatalf("missing alternatives: %+v", alts)
	}
	// Global avoids both A->B and A->C: only the direct A->D remains.
	if got := topo.PathDelay(alts.Global); got != 50*unit.Millisecond {
		t.Errorf("global delay = %v, want 50ms (direct)", got)
	}
	// Local avoids only A->B: A-C-D at 40ms.
	if got := topo.PathDelay(alts.Local); got != 40*unit.Millisecond {
		t.Errorf("local delay = %v, want 40ms (A-C-D)", got)
	}
	// Link-local avoids only A->B too in this case: same 40ms path.
	if got := topo.PathDelay(alts.LinkLocal); got != 40*unit.Millisecond {
		t.Errorf("link-local delay = %v, want 40ms", got)
	}
	// Ordering property: global has at most the capacity-freshness, so
	// delay(global) >= delay(local) >= delay(link-local).
	if topo.PathDelay(alts.Global) < topo.PathDelay(alts.Local) {
		t.Error("global should not be faster than local")
	}
	if topo.PathDelay(alts.Local) < topo.PathDelay(alts.LinkLocal) {
		t.Error("local should not be faster than link-local")
	}
}

func TestAlternativesWhenGlobalImpossible(t *testing.T) {
	topo := fourSquare(t)
	g, _ := New(topo, Policy{})
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	// Congest every link out of A: no global path exists.
	all := make([]bool, topo.NumLinks())
	all[linkID(t, topo, "A", "B")] = true
	all[linkID(t, topo, "A", "C")] = true
	all[linkID(t, topo, "A", "D")] = true
	used := all
	alts := g.Alternatives(Request{
		Src: a, Dst: d,
		CongestedAll:  all,
		CongestedUsed: used,
		MostCongested: linkID(t, topo, "A", "B"),
	})
	if alts.HasGlobal || alts.HasLocal {
		t.Error("global/local path found despite all exits congested")
	}
	if !alts.HasLinkLocal {
		t.Error("link-local must exist (only one link avoided)")
	}
}

func TestPolicyForbiddenLinks(t *testing.T) {
	topo := fourSquare(t)
	forbidden := make([]bool, topo.NumLinks())
	forbidden[linkID(t, topo, "A", "B")] = true
	g, err := New(topo, Policy{ForbiddenLinks: forbidden})
	if err != nil {
		t.Fatal(err)
	}
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	p, ok := g.LowestDelay(a, d)
	if !ok {
		t.Fatal("no path")
	}
	if p.Contains(forbidden2id(forbidden)) {
		t.Error("path uses forbidden link")
	}
	if got := topo.PathDelay(p); got != 40*unit.Millisecond {
		t.Errorf("delay = %v, want 40ms (A-C-D)", got)
	}
}

func forbidden2id(f []bool) graph.EdgeID {
	for i, b := range f {
		if b {
			return graph.EdgeID(i)
		}
	}
	return -1
}

func TestMostCongestedOutOfRange(t *testing.T) {
	topo := fourSquare(t)
	g, _ := New(topo, Policy{})
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	// A bogus link id must not panic and must return the unconstrained
	// lowest-delay path.
	for _, most := range []graph.EdgeID{-1, graph.EdgeID(topo.NumLinks())} {
		alts := g.Alternatives(Request{Src: a, Dst: d, MostCongested: most})
		if !alts.HasLinkLocal || topo.PathDelay(alts.LinkLocal) != 20*unit.Millisecond {
			t.Errorf("link-local avoiding link %d = %v ok=%v", most, alts.LinkLocal, alts.HasLinkLocal)
		}
	}
}

func TestKLowestDelay(t *testing.T) {
	topo := fourSquare(t)
	g, _ := New(topo, Policy{})
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	paths := g.KLowestDelay(a, d, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantDelays := []unit.Delay{20, 40, 50}
	for i, p := range paths {
		if got := topo.PathDelay(p); got != wantDelays[i]*unit.Millisecond {
			t.Errorf("path %d delay = %v, want %v ms", i, got, wantDelays[i])
		}
	}
}

// TestKLowestDelayAvoidsForbiddenLinks: the policy's forbidden links
// bound the K lowest-delay paths as they bound every other lookup, and a
// retarget to another policy moves that bound.
func TestKLowestDelayAvoidsForbiddenLinks(t *testing.T) {
	topo := fourSquare(t)
	ab := linkID(t, topo, "A", "B")
	forbidden := make([]bool, topo.NumLinks())
	forbidden[ab] = true
	g, err := New(topo, Policy{ForbiddenLinks: forbidden})
	if err != nil {
		t.Fatal(err)
	}
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	delays := func(avoid bool) []unit.Delay {
		var out []unit.Delay
		for _, p := range g.KLowestDelay(a, d, 5) {
			if avoid && p.Contains(ab) {
				t.Errorf("%v uses the forbidden link A->B", p)
			}
			out = append(out, topo.PathDelay(p)/unit.Millisecond)
		}
		return out
	}
	if got := delays(true); !slices.Equal(got, []unit.Delay{40, 50}) {
		t.Errorf("forbidden A->B: delays %v ms, want [40 50]", got)
	}
	if err := g.Retarget(topo, Policy{}); err != nil {
		t.Fatal(err)
	}
	if got := delays(false); !slices.Equal(got, []unit.Delay{20, 40, 50}) {
		t.Errorf("open policy: delays %v ms, want [20 40 50]", got)
	}
}

func TestPathSetDedupAndLimit(t *testing.T) {
	topo := fourSquare(t)
	g, _ := New(topo, Policy{})
	a, d := nodeID(t, topo, "A"), nodeID(t, topo, "D")
	paths := g.KLowestDelay(a, d, 3)

	s := NewPathSet(2, nil)
	if !s.Add(paths[0]) {
		t.Error("first Add failed")
	}
	if s.Add(paths[0]) {
		t.Error("duplicate Add succeeded")
	}
	if !s.Contains(paths[0]) {
		t.Error("Contains false for stored path")
	}
	if s.IndexOf(paths[0]) != 0 {
		t.Error("IndexOf wrong")
	}
	if !s.Add(paths[1]) {
		t.Error("second Add failed")
	}
	if s.Add(paths[2]) {
		t.Error("Add beyond limit succeeded")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if s.IndexOf(paths[2]) != -1 {
		t.Error("IndexOf of absent path != -1")
	}
	// Unlimited set takes all.
	u := NewPathSet(0, nil)
	for _, p := range paths {
		u.Add(p)
	}
	if u.Len() != 3 {
		t.Errorf("unlimited Len = %d, want 3", u.Len())
	}
	if got := u.Path(1); !got.Equal(paths[1]) {
		t.Error("Path(1) mismatch")
	}
	// A reset set keeps no path past its length alive.
	u.Reset(0)
	for i, p := range u.paths[:cap(u.paths)] {
		if p.Edges != nil {
			t.Errorf("entry %d keeps %d edges after Reset", i, len(p.Edges))
		}
	}
	// Sets carved from one array: the one that outgrows its room moves
	// out and leaves its neighbour's path where it was.
	shared := make([]graph.Path, 2)
	first, second := NewPathSet(0, shared[0:0:1]), NewPathSet(0, shared[1:1:2])
	first.Add(paths[0])
	second.Add(paths[2])
	first.Add(paths[1])
	if first.Len() != 2 || !first.Path(1).Equal(paths[1]) || !second.Path(0).Equal(paths[2]) || !shared[1].Equal(paths[2]) {
		t.Error("a set outgrowing its room wrote into its neighbour's")
	}
}

func TestGeneratorOnHE(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(topo, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Every ordered pair must have a lowest-delay path; alternatives must
	// avoid what they claim to avoid.
	n := topo.NumNodes()
	congested := make([]bool, topo.NumLinks())
	congested[0], congested[7] = true, true
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			s, d := graph.NodeID(src), graph.NodeID(dst)
			p, ok := g.LowestDelay(s, d)
			if !ok {
				t.Fatalf("no path %d->%d", src, dst)
			}
			if err := p.Validate(topo.Graph(), s, d); err != nil {
				t.Fatalf("invalid path: %v", err)
			}
			alts := g.Alternatives(Request{
				Src: s, Dst: d,
				CongestedAll:  congested,
				CongestedUsed: congested,
				MostCongested: 0,
			})
			if alts.HasGlobal {
				for _, e := range alts.Global.Edges {
					if congested[e] {
						t.Fatalf("global path %d->%d uses congested link %d", src, dst, e)
					}
				}
			}
			if alts.HasLinkLocal && alts.LinkLocal.Contains(0) {
				t.Fatalf("link-local path %d->%d uses avoided link 0", src, dst)
			}
		}
	}
}
