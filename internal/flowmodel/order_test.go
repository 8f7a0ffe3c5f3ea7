package flowmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// The water-filling outcome must not depend on the order bundles are
// presented in: rates, utility and the congested-link set are properties
// of the allocation, not of its encoding. (Float tie-breaking may differ
// microscopically; tolerances reflect that.)
func TestEvaluateOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	topo, err := topology.Ring(9, 5, 1200*unit.Kbps, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(3)
	cfg.RealTimeFlows = [2]int{2, 9}
	cfg.BulkFlows = [2]int{1, 5}
	cfg.LargeFlows = [2]int{1, 2}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	var bundles []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		paths := new(graph.Searcher).KShortestPaths(topo.Graph(), a.Src, a.Dst, 2, graph.Constraints{})
		if len(paths) > 1 && a.Flows > 1 {
			k := a.Flows / 2
			bundles = append(bundles,
				NewBundle(topo, a.ID, k, paths[0]),
				NewBundle(topo, a.ID, a.Flows-k, paths[1]))
		} else {
			bundles = append(bundles, NewBundle(topo, a.ID, a.Flows, paths[0]))
		}
	}

	base := m.NewEval().Evaluate(bundles).Clone()
	baseRates := map[string]float64{}
	for i, b := range bundles {
		baseRates[bundleKey(b)] = base.BundleRate[i]
	}

	for trial := 0; trial < 5; trial++ {
		shuffled := append([]Bundle(nil), bundles...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		res := m.NewEval().Evaluate(shuffled)
		if math.Abs(res.NetworkUtility-base.NetworkUtility) > 1e-6 {
			t.Fatalf("trial %d: utility %v != %v under permutation",
				trial, res.NetworkUtility, base.NetworkUtility)
		}
		if len(res.Congested) != len(base.Congested) {
			t.Fatalf("trial %d: congested %d != %d links under permutation",
				trial, len(res.Congested), len(base.Congested))
		}
		for i, b := range shuffled {
			want := baseRates[bundleKey(b)]
			if relDiff(res.BundleRate[i], want) > 1e-6 {
				t.Fatalf("trial %d: bundle %v rate %v != %v under permutation",
					trial, b.Agg, res.BundleRate[i], want)
			}
		}
	}
}

func bundleKey(b Bundle) string {
	key := fmt.Sprintf("%d:%d:", b.Agg, b.Flows)
	for _, e := range b.Edges {
		key += fmt.Sprintf("%d,", e)
	}
	return key
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// Merging two bundles of the same aggregate on the same path is
// equivalent to one combined bundle.
func TestEvaluateBundleMergeEquivalence(t *testing.T) {
	b := topology.NewBuilder("m")
	b.AddLink("A", "B", 1*unit.Mbps, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := new(graph.Searcher).ShortestPath(topo.Graph(), 0, 1, graph.Constraints{})
	merged := m.NewEval().Evaluate([]Bundle{NewBundle(topo, 0, 10, p)}).Clone()
	split := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 6, p),
		NewBundle(topo, 0, 4, p),
	})
	if math.Abs(merged.NetworkUtility-split.NetworkUtility) > 1e-9 {
		t.Errorf("merge inequivalence: %v vs %v", merged.NetworkUtility, split.NetworkUtility)
	}
	if math.Abs((split.BundleRate[0]+split.BundleRate[1])-merged.BundleRate[0]) > 1e-6 {
		t.Errorf("split rates %v+%v != merged %v",
			split.BundleRate[0], split.BundleRate[1], merged.BundleRate[0])
	}
}
