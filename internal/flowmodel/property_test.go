package flowmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// randomInstance draws a seeded random topology, matrix and allocation:
// every aggregate's flows are split over up to three of its lowest-delay
// paths with random proportions.
func randomInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix, []Bundle) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := topology.Ring(5+rng.Intn(6), 2+rng.Intn(4),
		unit.Bandwidth(300+rng.Intn(1500))*unit.Kbps, seed)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{1, 10}
	cfg.BulkFlows = [2]int{1, 6}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	gen, err := pathgen.New(topo, pathgen.Policy{})
	if err != nil {
		t.Fatalf("pathgen.New: %v", err)
	}
	var bundles []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		paths := gen.KLowestDelay(a.Src, a.Dst, 1+rng.Intn(3))
		if len(paths) == 0 {
			t.Fatalf("no path for aggregate %d", a.ID)
		}
		left := a.Flows
		for i, p := range paths {
			n := left
			if i < len(paths)-1 {
				n = rng.Intn(left + 1)
			}
			if n > 0 {
				bundles = append(bundles, NewBundle(topo, a.ID, n, p))
			}
			left -= n
			if left == 0 {
				break
			}
		}
		if left > 0 {
			bundles = append(bundles, NewBundle(topo, a.ID, left, paths[0]))
		}
	}
	return topo, mat, bundles
}

// TestPropertyCapacityRespected checks that no link ever carries more
// than its capacity, over many random instances.
func TestPropertyCapacityRespected(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		topo, mat, bundles := randomInstance(t, seed)
		model, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		res := model.NewEval().Evaluate(bundles)
		// Link loads reconstructed from bundle rates (the Result's
		// LinkLoad is clamped; the raw sum must respect capacity too,
		// within float dust).
		raw := make([]float64, topo.NumLinks())
		for i, b := range bundles {
			for _, e := range b.Edges {
				raw[e] += res.BundleRate[i]
			}
		}
		for l := range raw {
			cap := float64(topo.Capacity(graph.EdgeID(l)))
			if raw[l] > cap*(1+1e-6)+1e-6 {
				t.Fatalf("seed %d: link %d carries %.6f > capacity %.0f", seed, l, raw[l], cap)
			}
		}
	}
}

// TestPropertyDemandCap checks no bundle exceeds its demand and
// satisfied bundles sit exactly at it.
func TestPropertyDemandCap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		topo, mat, bundles := randomInstance(t, seed)
		model, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		res := model.NewEval().Evaluate(bundles)
		for i, b := range bundles {
			demand := float64(mat.Aggregate(b.Agg).DemandPerFlow()) * float64(b.Flows)
			rate := res.BundleRate[i]
			if rate < 0 {
				t.Fatalf("seed %d: bundle %d negative rate %.6f", seed, i, rate)
			}
			if rate > demand*(1+1e-9)+1e-9 {
				t.Fatalf("seed %d: bundle %d rate %.6f > demand %.6f", seed, i, rate, demand)
			}
			if res.BundleSatisfied[i] && math.Abs(rate-demand) > demand*1e-6+1e-6 {
				t.Fatalf("seed %d: bundle %d satisfied at %.6f, demand %.6f", seed, i, rate, demand)
			}
		}
	}
}

// TestPropertyUtilityBounded checks per-aggregate and network utility
// stay within [0,1].
func TestPropertyUtilityBounded(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		topo, mat, bundles := randomInstance(t, seed)
		model, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		res := model.NewEval().Evaluate(bundles)
		for a, u := range res.AggUtility {
			if u < -1e-12 || u > 1+1e-12 {
				t.Fatalf("seed %d: aggregate %d utility %.9f outside [0,1]", seed, a, u)
			}
		}
		if res.NetworkUtility < -1e-12 || res.NetworkUtility > 1+1e-12 {
			t.Fatalf("seed %d: network utility %.9f outside [0,1]", seed, res.NetworkUtility)
		}
	}
}

// TestPropertyCapacityMonotonicity checks that uniformly growing every
// link's capacity never lowers network utility (more room, never worse).
func TestPropertyCapacityMonotonicity(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		topo, mat, bundles := randomInstance(t, seed)
		model, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		base := model.NewEval().Evaluate(bundles).NetworkUtility

		// Rebuild the same instance at 2x capacity. Topology generators
		// are deterministic per seed, so only capacity differs.
		big := topology.NewBuilder(topo.Name() + "-2x")
		for n := 0; n < topo.NumNodes(); n++ {
			big.AddNode(topo.NodeName(topology.NodeID(n)))
		}
		for _, l := range topo.Links() {
			if l.Reverse >= 0 && l.Reverse < l.ID {
				continue // one AddLink per physical link
			}
			big.AddLink(topo.NodeName(l.From), topo.NodeName(l.To), 2*l.Capacity, l.Delay)
		}
		bigTopo, err := big.Build()
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		bigMat, err := traffic.NewMatrix(bigTopo, remapAggs(mat))
		if err != nil {
			t.Fatalf("seed %d: NewMatrix: %v", seed, err)
		}
		bigModel, err := New(bigTopo, bigMat)
		if err != nil {
			t.Fatalf("seed %d: New(big): %v", seed, err)
		}
		bigBundles := make([]Bundle, len(bundles))
		for i, b := range bundles {
			bigBundles[i] = Bundle{Agg: b.Agg, Flows: b.Flows, Edges: b.Edges, Delay: b.Delay}
		}
		grown := bigModel.NewEval().Evaluate(bigBundles).NetworkUtility
		if grown < base-1e-9 {
			t.Fatalf("seed %d: doubling capacity lowered utility %.6f -> %.6f", seed, base, grown)
		}
	}
}

// remapAggs copies a matrix's aggregates (IDs are reassigned in order,
// which NewMatrix does anyway).
func remapAggs(mat *traffic.Matrix) []traffic.Aggregate {
	return mat.Aggregates()
}

// TestPropertyRTTFairShare property-checks the §2.3 claim on a single
// bottleneck: two always-hungry bundles share it in inverse proportion
// to their RTTs (within float tolerance), for arbitrary RTel pairs.
func TestPropertyRTTFairShare(t *testing.T) {
	prop := func(d1Raw, d2Raw uint16, flows1Raw, flows2Raw uint8) bool {
		d1 := unit.Delay(1+d1Raw%200) * unit.Millisecond
		d2 := unit.Delay(1+d2Raw%200) * unit.Millisecond
		f1 := int(flows1Raw%8) + 1
		f2 := int(flows2Raw%8) + 1

		b := topology.NewBuilder("rtt-prop")
		b.AddNode("s1")
		b.AddNode("s2")
		b.AddNode("m")
		b.AddNode("d")
		b.AddLink("s1", "m", 100000*unit.Kbps, d1)
		b.AddLink("s2", "m", 100000*unit.Kbps, d2)
		b.AddLink("m", "d", 1000*unit.Kbps, 1*unit.Millisecond)
		topo, err := b.Build()
		if err != nil {
			return false
		}
		// Demand far above the bottleneck so both stay hungry.
		bw := utility.MustCurve(utility.Point{}, utility.Point{X: 100000, Y: 1})
		dl := utility.MustCurve(utility.Point{Y: 1}, utility.Point{X: 10000, Y: 0})
		fn := utility.MustFunction("hungry", bw, dl)
		mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
			{Src: 0, Dst: 3, Class: utility.ClassBulk, Flows: f1, Fn: fn, Weight: 1},
			{Src: 1, Dst: 3, Class: utility.ClassBulk, Flows: f2, Fn: fn, Weight: 1},
		})
		if err != nil {
			return false
		}
		gen, err := pathgen.New(topo, pathgen.Policy{})
		if err != nil {
			return false
		}
		p1, ok1 := gen.LowestDelay(0, 3)
		p2, ok2 := gen.LowestDelay(1, 3)
		if !ok1 || !ok2 {
			return false
		}
		model, err := New(topo, mat)
		if err != nil {
			return false
		}
		bundles := []Bundle{
			NewBundle(topo, 0, f1, p1),
			NewBundle(topo, 1, f2, p2),
		}
		res := model.NewEval().Evaluate(bundles)
		r1, r2 := res.BundleRate[0], res.BundleRate[1]
		if r1 <= 0 || r2 <= 0 {
			return false
		}
		// Expected split ratio: (f1/RTT1) / (f2/RTT2).
		want := (float64(f1) / bundles[0].RTT()) / (float64(f2) / bundles[1].RTT())
		got := r1 / r2
		return math.Abs(got-want)/want < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEvaluateDeterministic checks Evaluate is a pure function
// of its inputs: same bundles, same result, across repeated calls that
// reuse one arena's scratch state.
func TestPropertyEvaluateDeterministic(t *testing.T) {
	topo, mat, bundles := randomInstance(t, 77)
	model, err := New(topo, mat)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	arena := model.NewEval()
	first := arena.Evaluate(bundles).Clone()
	for i := 0; i < 5; i++ {
		// Interleave evaluations of a perturbed allocation to dirty the
		// scratch state.
		perturbed := append([]Bundle(nil), bundles...)
		if len(perturbed) > 1 {
			perturbed = perturbed[:len(perturbed)-1]
		}
		arena.Evaluate(perturbed)

		again := arena.Evaluate(bundles)
		if again.NetworkUtility != first.NetworkUtility {
			t.Fatalf("iteration %d: utility %.12f != %.12f", i, again.NetworkUtility, first.NetworkUtility)
		}
		for j := range first.BundleRate {
			if again.BundleRate[j] != first.BundleRate[j] {
				t.Fatalf("iteration %d: bundle %d rate %.9f != %.9f",
					i, j, again.BundleRate[j], first.BundleRate[j])
			}
		}
	}
}
