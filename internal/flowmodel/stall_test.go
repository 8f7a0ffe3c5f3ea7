package flowmodel

import (
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// stallInstance engineers the residual-float-weight stall guard into
// firing deterministically. Two bundles share link A->B whose capacity
// equals their total demand exactly (integers, so the float sums are
// exact): both reach their demands, leaving the link full. Their weights
// are 0.1 and 0.3 (flows 1 and 3 at RTT 10 ms), and
// (0.1+0.3)-0.3-0.1 > 0 in float64, so after both freeze the link keeps
// a dust weight with saturation time (cap-frozen)/dust = 0/dust = 0 — a
// pending event with no active crossers. A third, slower bundle on a
// disjoint link keeps the filling alive so that event actually pops and
// the guard must retire it (pre-guard, the filling would spin on it
// forever).
func stallInstance(t *testing.T) (*Model, []Bundle) {
	t.Helper()
	b := topology.NewBuilder("stall")
	b.AddNode("A")
	b.AddNode("B")
	b.AddNode("C")
	b.AddNode("D")
	b.AddLink("A", "B", 250*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("C", "D", 10000*unit.Kbps, 5*unit.Millisecond)
	// Connectivity filler; no bundle crosses it (delay keeps it off the
	// A->B and C->D shortest paths).
	b.AddLink("B", "C", 10000*unit.Kbps, 500*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fn := func(peak float64) utility.Function {
		bw := utility.MustCurve(utility.Point{}, utility.Point{X: peak, Y: 1})
		dl := utility.MustCurve(utility.Point{Y: 1}, utility.Point{X: 10000, Y: 0})
		return utility.MustFunction("stall", bw, dl)
	}
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 1, Fn: fn(100), Weight: 1},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 3, Fn: fn(50), Weight: 1},
		{Src: 2, Dst: 3, Class: utility.ClassBulk, Flows: 1, Fn: fn(200), Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	ab, ok := new(graph.Searcher).ShortestPath(topo.Graph(), 0, 1, graph.Constraints{})
	if !ok {
		t.Fatal("no A->B path")
	}
	cd, ok := new(graph.Searcher).ShortestPath(topo.Graph(), 2, 3, graph.Constraints{})
	if !ok {
		t.Fatal("no C->D path")
	}
	return m, []Bundle{
		NewBundle(topo, 0, 1, ab),
		NewBundle(topo, 1, 3, ab),
		NewBundle(topo, 2, 1, cd),
	}
}

// TestStallGuardFires pins the guard directly: the engineered instance
// must trigger it (not rely on it incidentally), terminate, and leave the
// link's bookkeeping consistent — full but not congested, demand intact,
// load equal to the crossers' rates and clamped at capacity, no dust
// leaking into any Result field.
func TestStallGuardFires(t *testing.T) {
	m, bundles := stallInstance(t)
	arena := m.NewEval()
	before := arena.stallClears
	res := arena.Evaluate(bundles)
	if arena.stallClears == before {
		t.Fatal("stall guard did not fire; the engineered dust event was never popped")
	}
	// Every bundle satisfied at exactly its demand.
	for i, want := range []float64{100, 150, 200} {
		if !res.BundleSatisfied[i] || res.BundleRate[i] != want {
			t.Fatalf("bundle %d: rate %v satisfied %v, want %v satisfied",
				i, res.BundleRate[i], res.BundleSatisfied[i], want)
		}
	}
	// The shared link is full but consistent: load == sum of rates ==
	// capacity == demand, and NOT congested (nobody was denied).
	if res.LinkLoad[0] != 250 || res.LinkDemand[0] != 250 {
		t.Fatalf("link 0: load %v demand %v, want 250/250", res.LinkLoad[0], res.LinkDemand[0])
	}
	if res.IsCongested[0] || len(res.Congested) != 0 {
		t.Fatalf("link 0 marked congested by the stall guard: %v", res.Congested)
	}
	// The dust itself was cleared so repeated evaluations stay stable.
	res2 := m.NewEval().Evaluate(bundles)
	if res2.NetworkUtility != res.NetworkUtility {
		t.Fatalf("re-evaluation diverged: %v != %v", res2.NetworkUtility, res.NetworkUtility)
	}
}

// TestStallGuardDelta runs the same engineered instance through the
// delta path: a capacity-exact link is binding (load == cap), so the
// sub-problem models it, hits the same dust event, and must produce
// bit-identical results.
func TestStallGuardDelta(t *testing.T) {
	m, bundles := stallInstance(t)
	var base Base
	m.NewEval().EvaluateBase(bundles, &base)
	// Move one flow of the three-flow aggregate nowhere — instead shrink
	// and regrow across the two A->B bundles so the changed set touches
	// the dust link.
	cand := append([]Bundle(nil), bundles...)
	cand[0].Flows = 0
	cand[1].Flows = 3 // unchanged count, but listed as changed
	want := m.NewEval().Evaluate(cand).Clone()
	arena := m.NewEval()
	got := arena.EvaluateDelta(arena.Closure(&base), cand, []int{0, 1})
	requireIdentical(t, "stall delta", want, got)
}
