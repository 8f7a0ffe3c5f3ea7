package flowmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestPropertyResultAgreesWithRates checks that a Result's own fields agree
// with its bundle rates, over many random instances: a satisfied bundle
// sits at its demand, an unsatisfied backbone bundle crosses a congested
// link, and a link's load is the sum of its crossers' rates. That the rates
// themselves are max-min fair, within capacity and demand, is
// TestMaxMinCertificate's.
func TestPropertyResultAgreesWithRates(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		topo, mat, bundles := randomInstance(t, seed)
		model, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		res := model.NewEval().Evaluate(bundles)
		loads := make([]float64, topo.NumLinks())
		for i, b := range bundles {
			demand := float64(mat.Aggregate(b.Agg).DemandPerFlow()) * float64(b.Flows)
			rate := res.BundleRate[i]
			if res.BundleSatisfied[i] && math.Abs(rate-demand) > demand*1e-9+1e-9 {
				t.Fatalf("seed %d: bundle %d satisfied at %v, demand %v", seed, i, rate, demand)
			}
			congested := func(e graph.EdgeID) bool { return res.IsCongested[e] }
			if !res.BundleSatisfied[i] && len(b.Edges) > 0 && !slices.ContainsFunc(b.Edges, congested) {
				t.Fatalf("seed %d: unsatisfied bundle %d crosses no congested link", seed, i)
			}
			for _, e := range b.Edges {
				loads[e] += rate
			}
		}
		for l, want := range loads {
			if math.Abs(res.LinkLoad[l]-want) > 1e-6+want*1e-9 {
				t.Fatalf("seed %d: link %d load %v, its crossers' rates sum to %v", seed, l, res.LinkLoad[l], want)
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

		// The same instance at 2x capacity.
		caps := make([]unit.Bandwidth, topo.NumLinks())
		for l := range caps {
			caps[l] = 2 * topo.Capacity(topology.LinkID(l))
		}
		bigTopo, err := topo.WithCapacities(caps)
		if err != nil {
			t.Fatalf("seed %d: WithCapacities: %v", seed, err)
		}
		bigMat, err := traffic.NewMatrix(bigTopo, mat.Aggregates())
		if err != nil {
			t.Fatalf("seed %d: NewMatrix: %v", seed, err)
		}
		bigModel, err := New(bigTopo, bigMat)
		if err != nil {
			t.Fatalf("seed %d: New(big): %v", seed, err)
		}
		grown := bigModel.NewEval().Evaluate(bundles).NetworkUtility
		if grown < base-1e-9 {
			t.Fatalf("seed %d: doubling capacity lowered utility %.6f -> %.6f", seed, base, grown)
		}
	}
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
		requireIdentical(t, fmt.Sprintf("iteration %d", i), first, arena.Evaluate(bundles))
	}
}
