package baseline

import (
	"math"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

func mustModel(t *testing.T, topo *topology.Topology, aggs []traffic.Aggregate) *flowmodel.Model {
	t.Helper()
	mat, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func twoPath(t *testing.T, directCap unit.Bandwidth) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("twopath")
	b.AddLink("A", "B", directCap, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 15*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestShortestPathAllocation(t *testing.T) {
	topo := twoPath(t, 1*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps demand on 1 Mbps direct
	})
	out, err := ShortestPath(m, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Bundles) != 1 {
		t.Fatalf("bundles = %d, want 1", len(out.Bundles))
	}
	if out.Bundles[0].Delay != 10*unit.Millisecond {
		t.Errorf("bundle delay = %v, want 10ms (direct path)", out.Bundles[0].Delay)
	}
	// Per-flow 100 kbps of 200 kbps demand -> bulk U_bw = 0.5.
	if math.Abs(out.Utility-0.5) > 1e-9 {
		t.Errorf("utility = %v, want 0.5", out.Utility)
	}
	if _, err := ShortestPath(nil, pathgen.Policy{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestUpperBoundUncongested(t *testing.T) {
	topo := twoPath(t, 100*unit.Mbps)
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 3, Fn: utility.Bulk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := UpperBound(topo, mat, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate alone on a huge network: full demand at 10ms -> utility 1.
	if math.Abs(ub.PerAggregate[0]-1) > 1e-9 {
		t.Errorf("isolated utility = %v, want 1", ub.PerAggregate[0])
	}
	if ub.PerAggregate[1] != 1 {
		t.Errorf("self-pair bound = %v, want 1", ub.PerAggregate[1])
	}
	if math.Abs(ub.Mean-1) > 1e-9 {
		t.Errorf("mean = %v, want 1", ub.Mean)
	}
}

func TestUpperBoundBottleneckedSplits(t *testing.T) {
	// Lone aggregate too big for its best path: bound must use the
	// alternate path too, exceeding the single-path utility.
	topo := twoPath(t, 1*unit.Mbps)
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps
	})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := UpperBound(topo, mat, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	// 5 flows fit on the direct 1 Mbps path at full demand; the rest fit
	// easily on the 100 Mbps detour (delay 30ms, bulk doesn't care):
	// bound should be 1.
	if math.Abs(ub.PerAggregate[0]-1) > 1e-9 {
		t.Errorf("split bound = %v, want 1", ub.PerAggregate[0])
	}
}

func TestUpperBoundDominatesShortestPath(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShortestPath(m, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := UpperBound(topo, mat, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if ub.Mean < sp.Utility-1e-9 {
		t.Errorf("upper bound %v below shortest path %v", ub.Mean, sp.Utility)
	}
	// Per-aggregate: bound dominates the congested allocation everywhere.
	for i, u := range ub.PerAggregate {
		if sp.Result.AggUtility[i] > u+1e-9 {
			t.Fatalf("aggregate %d: shortest-path %v beats bound %v", i, sp.Result.AggUtility[i], u)
		}
	}
}

func TestBaselineNilModel(t *testing.T) {
	if _, err := UpperBound(nil, nil, pathgen.Policy{}); err == nil {
		t.Error("UpperBound nil args accepted")
	}
}
