package pathgen

import (
	"fmt"
	"math/rand"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// memoized is the memo's answer under key; the zero answer if none.
func (g *Generator) memoized(key memoKey) answer {
	if i, ok := g.memo[key]; ok {
		return g.answers[i]
	}
	return answer{}
}

// sameLookups asks both generators one optimizer's worth of questions —
// every pair's lowest-delay path, then its trio under the congestion lists
// — and requires the long-lived one to answer as the fresh one does in
// everything a caller or a later lookup can see: edges, Weight bits, ok,
// and the uniqueness proof that decides what an answer may be donated to.
func sameLookups(t *testing.T, long, fresh *Generator, pairs [][2]graph.NodeID, all, used []graph.EdgeID, most graph.EdgeID) {
	t.Helper()
	same := func(what string, pr [2]graph.NodeID, links []graph.EdgeID) {
		t.Helper()
		a := long.memoized(memoKey{pr[0], pr[1], long.internWith(links)})
		b := fresh.memoized(memoKey{pr[0], pr[1], fresh.internWith(links)})
		if !sameAnswer(a.path, a.ok, b.path, b.ok) || a.unique != b.unique {
			t.Fatalf("%v %s avoiding %v (forbidden %v): long-lived %v/%v/%v, fresh %v/%v/%v",
				pr, what, links, long.forbidden, a.path, a.ok, a.unique, b.path, b.ok, b.unique)
		}
	}
	for _, pr := range pairs {
		p, ok := long.LowestDelay(pr[0], pr[1])
		q, qok := fresh.LowestDelay(pr[0], pr[1])
		if !sameAnswer(p, ok, q, qok) {
			t.Fatalf("%v: lowest delay %v/%v, fresh %v/%v (forbidden %v)", pr, p, ok, q, qok, long.forbidden)
		}
		same("lowest", pr, nil)
		got := long.AlternativesAvoiding(pr[0], pr[1], all, used, most)
		want := fresh.AlternativesAvoiding(pr[0], pr[1], all, used, most)
		if !sameAnswer(got.Global, got.HasGlobal, want.Global, want.HasGlobal) ||
			!sameAnswer(got.Local, got.HasLocal, want.Local, want.HasLocal) ||
			!sameAnswer(got.LinkLocal, got.HasLinkLocal, want.LinkLocal, want.HasLinkLocal) {
			t.Fatalf("%v: long-lived %+v, fresh %+v (forbidden %v)", pr, got, want, long.forbidden)
		}
		same("global", pr, all)
		same("local", pr, used)
		same("link-local", pr, []graph.EdgeID{most})
	}
}

// TestRetargetWalkMatchesFreshGenerator: a generator retargeted along a
// random walk of forbidden masks — links failing and recovering under a
// live memo, capacities rescaled into a new Topology over the same graph —
// answers every epoch's questions exactly as a generator built for that
// epoch does, while keeping what it learned; and the one thing a search
// depends on besides the exclusion set — the graph — starts it over.
func TestRetargetWalkMatchesFreshGenerator(t *testing.T) {
	ring, err := topology.Ring(6, 0, 100*unit.Mbps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo *topology.Topology
	}{{"he31", heTopo(t)}, {"ring-tied", ring}, {"one-way", oneWayWaxman(t)}} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo
			nL, nN := topo.NumLinks(), topo.NumNodes()
			rng := rand.New(rand.NewSource(29))
			var pairs [][2]graph.NodeID
			for i := 0; i < 8; i++ {
				src := graph.NodeID(rng.Intn(nN))
				for j := 0; j < 6; j++ {
					pairs = append(pairs, [2]graph.NodeID{src, graph.NodeID(rng.Intn(nN))})
				}
			}
			long, err := New(topo, Policy{})
			if err != nil {
				t.Fatal(err)
			}
			var down []topology.LinkID
			congested := make([]bool, nL)
			kept := 0
			for epoch := 0; epoch < 40; epoch++ {
				// A physical link fails, or the one longest down recovers;
				// every other epoch nothing does, and the lookups under the
				// forbidden links repeat. Congestion drifts all the while.
				if epoch%2 == 0 {
					if len(down) == 3 || (len(down) > 0 && rng.Intn(3) == 0) {
						down = down[1:]
					} else {
						down = append(down, topology.LinkID(rng.Intn(nL)))
					}
				}
				policy := Policy{ForbiddenLinks: ForbidLinks(topo, down...)}
				epochTopo, err := scaledCapacity(topo, 1+float64(epoch)/100)
				if err != nil {
					t.Fatal(err)
				}
				before := long.Entries()
				if err := long.Retarget(epochTopo, policy); err != nil {
					t.Fatal(err)
				}
				if long.Entries() < before {
					t.Fatalf("epoch %d: Retarget over the same graph dropped entries (%d -> %d)", epoch, before, long.Entries())
				}
				fresh, err := New(epochTopo, policy)
				if err != nil {
					t.Fatal(err)
				}
				congested[rng.Intn(nL)] = true
				congested[rng.Intn(nL)] = false
				all := long.maskLinks(nil, congested)
				var used []graph.EdgeID
				most := graph.EdgeID(-1)
				for _, l := range all {
					if int(l)%2 == epoch%2 {
						used = append(used, l)
						most = l
					}
				}
				hits := long.Stats().MemoHits
				sameLookups(t, long, fresh, pairs, all, used, most)
				if long.Stats().MemoHits-hits > fresh.Stats().MemoHits {
					kept++
				}
			}
			if kept < 20 {
				t.Errorf("only %d of 40 epochs drew on answers of earlier ones", kept)
			}

			// Another graph starts the generator over.
			other, err := topology.HurricaneElectric(100 * unit.Mbps) // equal, but another graph
			if err != nil {
				t.Fatal(err)
			}
			g, err := New(topo, Policy{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range pairs {
				g.LowestDelay(pr[0], pr[1])
			}
			if g.Entries() < 10 {
				t.Fatalf("only %d entries to lose", g.Entries())
			}
			if err := g.Retarget(other, Policy{}); err != nil {
				t.Fatal(err)
			}
			if g.Entries() != 1 { // the policy's own exclusion set
				t.Errorf("%d entries survived the retarget, want the forbidden-only set alone", g.Entries())
			}
			fresh, err := New(other, Policy{})
			if err != nil {
				t.Fatal(err)
			}
			sameLookups(t, g, fresh, pairs, nil, nil, -1)
		})
	}
}

// TestRetargetRefusesBadPolicy: a refused Retarget changes nothing.
func TestRetargetRefusesBadPolicy(t *testing.T) {
	topo := fourSquare(t)
	g, err := New(topo, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.LowestDelay(0, 2)
	if err := g.Retarget(topo, Policy{ForbiddenLinks: make([]bool, topo.NumLinks()+1)}); err == nil {
		t.Error("Retarget accepted an oversized ForbiddenLinks")
	}
	if err := g.Retarget(nil, Policy{}); err == nil {
		t.Error("Retarget accepted a nil topology")
	}
	hits := g.Stats().MemoHits
	if got, ok := g.LowestDelay(0, 2); !ok || !got.Equal(want) || g.Stats().MemoHits != hits+1 {
		t.Errorf("generator changed by refused retargets: %v/%v, memo hits %d -> %d", got, ok, hits, g.Stats().MemoHits)
	}
}

// TestTrimBoundsWhatAGeneratorKeeps: past the bound everything goes —
// answers, trees, interned sets — and the answers that follow are the ones
// the kept memo gave, bought again with searches.
func TestTrimBoundsWhatAGeneratorKeeps(t *testing.T) {
	topo := heTopo(t)
	g, err := New(topo, Policy{ForbiddenLinks: ForbidLinks(topo, 7)})
	if err != nil {
		t.Fatal(err)
	}
	type q struct {
		src, dst graph.NodeID
		avoid    graph.EdgeID
	}
	var asked []q
	var answers []Alternatives
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		k := q{graph.NodeID(rng.Intn(8)), graph.NodeID(rng.Intn(topo.NumNodes())), graph.EdgeID(rng.Intn(topo.NumLinks()))}
		asked = append(asked, k)
		answers = append(answers, g.AlternativesAvoiding(k.src, k.dst, []graph.EdgeID{k.avoid}, nil, k.avoid))
	}
	full := g.Entries()
	if len(g.trees) == 0 || full < 300 {
		t.Fatalf("walk left %d entries and %d trees; nothing to bound", full, len(g.trees))
	}
	g.Trim(full) // at the bound: kept
	if g.Entries() != full {
		t.Fatalf("Trim(%d) dropped a generator holding exactly that", full)
	}
	g.Trim(full - 1)
	if g.Entries() != 1 || len(g.memo) != 0 || len(g.trees) != 0 || len(g.sources) != 0 {
		t.Fatalf("Trim left %d entries (%d answers, %d trees)", g.Entries(), len(g.memo), len(g.trees))
	}
	g.ResetStats()
	for i, k := range asked {
		got := g.AlternativesAvoiding(k.src, k.dst, []graph.EdgeID{k.avoid}, nil, k.avoid)
		if fmt.Sprint(got) != fmt.Sprint(answers[i]) {
			t.Fatalf("%+v: %+v after the flush, %+v before", k, got, answers[i])
		}
	}
	if st := g.Stats(); st.Searches+st.TreesBuilt == 0 {
		t.Errorf("answers after a flush cost no search: %+v", st)
	}
	if _, ok := g.LowestDelay(0, 1); !ok || g.forbidSet != 0 {
		t.Errorf("flush lost the policy's own exclusion set (id %d)", g.forbidSet)
	}
}

// scaledCapacity returns a copy of topo with every capacity multiplied by f.
func scaledCapacity(topo *topology.Topology, f float64) (*topology.Topology, error) {
	caps := make([]unit.Bandwidth, topo.NumLinks())
	for i, l := range topo.Links() {
		caps[i] = unit.Bandwidth(float64(l.Capacity) * f)
	}
	return topo.WithCapacities(caps)
}
