package flowmodel

import (
	"math"
	"slices"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// line builds A--B--C with the given per-link capacity.
func line(t *testing.T, cap unit.Bandwidth) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("line")
	b.AddLink("A", "B", cap, 10*unit.Millisecond)
	b.AddLink("B", "C", cap, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func pathBetween(t *testing.T, topo *topology.Topology, src, dst string) graph.Path {
	t.Helper()
	s, d := graph.NodeID(slices.Index(topo.NodeNames(), src)), graph.NodeID(slices.Index(topo.NodeNames(), dst))
	if s < 0 || d < 0 {
		t.Fatalf("node %s or %s", src, dst)
	}
	p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), s, d, graph.Constraints{})
	if !ok {
		t.Fatalf("no path %s->%s", src, dst)
	}
	return p
}

// linkBetween returns the link from node from to node to, by name.
func linkBetween(t *testing.T, topo *topology.Topology, from, to string) graph.EdgeID {
	t.Helper()
	for _, l := range topo.Links() {
		if topo.NodeName(l.From) == from && topo.NodeName(l.To) == to {
			return l.ID
		}
	}
	t.Fatalf("no link %s->%s", from, to)
	return -1
}

func mustMatrix(t *testing.T, topo *topology.Topology, aggs []traffic.Aggregate) *traffic.Matrix {
	t.Helper()
	m, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSingleBundleUncongested(t *testing.T) {
	topo := line(t, 100*unit.Mbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	bundles := []Bundle{NewBundle(topo, 0, 10, pathBetween(t, topo, "A", "C"))}
	res := m.NewEval().Evaluate(bundles)

	// Demand = 10 flows x 200 kbps = 2 Mbps, well under 100 Mbps.
	if got := res.BundleRate[0]; math.Abs(got-2000) > 1e-6 {
		t.Errorf("rate = %v kbps, want 2000", got)
	}
	if !res.BundleSatisfied[0] {
		t.Error("bundle not satisfied")
	}
	if len(res.Congested) != 0 {
		t.Errorf("congested links = %v, want none", res.Congested)
	}
	// Utility: full bandwidth at 20ms one-way delay -> bulk delay(20ms)=1.
	if math.Abs(res.NetworkUtility-1) > 1e-9 {
		t.Errorf("utility = %v, want 1", res.NetworkUtility)
	}
	// Both links on the path carry 2 Mbps.
	for _, e := range bundles[0].Edges {
		if math.Abs(res.LinkLoad[e]-2000) > 1e-6 {
			t.Errorf("link %d load = %v, want 2000", e, res.LinkLoad[e])
		}
	}
}

func TestSingleBundleBottlenecked(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	m, _ := New(topo, mat)
	bundles := []Bundle{NewBundle(topo, 0, 10, pathBetween(t, topo, "A", "C"))}
	res := m.NewEval().Evaluate(bundles)

	// Demand 2 Mbps > 1 Mbps capacity: rate capped at 1 Mbps.
	if got := res.BundleRate[0]; math.Abs(got-1000) > 1e-6 {
		t.Errorf("rate = %v kbps, want 1000", got)
	}
	if res.BundleSatisfied[0] {
		t.Error("bundle marked satisfied despite bottleneck")
	}
	if len(res.Congested) == 0 {
		t.Error("no congested links reported")
	}
	// Per-flow bandwidth 100 kbps -> bulk U_bw = 0.5 at negligible delay.
	if math.Abs(res.NetworkUtility-0.5) > 1e-9 {
		t.Errorf("utility = %v, want 0.5", res.NetworkUtility)
	}
}

// Two bundles with equal flow counts and different RTTs share a bottleneck
// inversely proportionally to RTT (§2.3).
func TestRTTProportionalSharing(t *testing.T) {
	b := topology.NewBuilder("y")
	b.AddLink("S1", "M", 1000*unit.Mbps, 5*unit.Millisecond)  // short feeder
	b.AddLink("S2", "M", 1000*unit.Mbps, 45*unit.Millisecond) // long feeder
	b.AddLink("M", "D", 1*unit.Mbps, 5*unit.Millisecond)      // shared bottleneck
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Huge demand so neither bundle saturates before the link fills.
	fn := utility.LargeFile(100 * 1000 * unit.Kbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 3, Class: utility.ClassLargeFile, Flows: 1, Fn: fn},
		{Src: 2, Dst: 3, Class: utility.ClassLargeFile, Flows: 1, Fn: fn},
	})
	m, _ := New(topo, mat)
	bundles := []Bundle{
		NewBundle(topo, 0, 1, pathBetween(t, topo, "S1", "D")), // RTT 2*(5+5)=20ms
		NewBundle(topo, 1, 1, pathBetween(t, topo, "S2", "D")), // RTT 2*(45+5)=100ms
	}
	res := m.NewEval().Evaluate(bundles)
	r1, r2 := res.BundleRate[0], res.BundleRate[1]
	if math.Abs(r1+r2-1000) > 1e-6 {
		t.Fatalf("rates %v + %v != capacity 1000", r1, r2)
	}
	// Shares proportional to 1/RTT: r1/r2 = 100/20 = 5.
	if ratio := r1 / r2; math.Abs(ratio-5) > 1e-6 {
		t.Errorf("rate ratio = %v, want 5 (inverse RTT)", ratio)
	}
}

// A satisfied bundle's leftover capacity goes to the still-growing one.
func TestDemandFreezeReleasesCapacity(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassRealTime, Flows: 2, Fn: utility.RealTime()},       // demand 100 kbps
		{Src: 0, Dst: 2, Class: utility.ClassLargeFile, Flows: 1, Fn: utility.LargeFile(5000)}, // demand 5 Mbps
	})
	m, _ := New(topo, mat)
	p := pathBetween(t, topo, "A", "C")
	bundles := []Bundle{
		NewBundle(topo, 0, 2, p),
		NewBundle(topo, 1, 1, p),
	}
	res := m.NewEval().Evaluate(bundles)
	// Real-time satisfied at 100 kbps, large flow gets the rest.
	if !res.BundleSatisfied[0] {
		t.Error("small bundle not satisfied")
	}
	if math.Abs(res.BundleRate[0]-100) > 1e-6 {
		t.Errorf("small rate = %v, want 100", res.BundleRate[0])
	}
	if math.Abs(res.BundleRate[1]-900) > 1e-6 {
		t.Errorf("large rate = %v, want 900", res.BundleRate[1])
	}
	if res.BundleSatisfied[1] {
		t.Error("large bundle marked satisfied")
	}
}

func TestSelfPairBundle(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 50, Fn: utility.Bulk()},
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{{Agg: 0, Flows: 50}})
	if res.NetworkUtility != 1 {
		t.Errorf("self-pair utility = %v, want 1", res.NetworkUtility)
	}
	if len(res.Congested) != 0 {
		t.Error("self-pair congested the network")
	}
	if res.ActualUtilization != 0 {
		t.Errorf("utilization = %v, want 0 (no links used)", res.ActualUtilization)
	}
}

// The delay component must kill utility for real-time flows on slow paths
// even with plentiful bandwidth.
func TestDelayKillsRealTimeUtility(t *testing.T) {
	b := topology.NewBuilder("slow")
	b.AddLink("A", "B", 100*unit.Mbps, 150*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 10, Fn: utility.RealTime()},
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{NewBundle(topo, 0, 10, pathBetween(t, topo, "A", "B"))})
	if res.BundleSatisfied[0] != true {
		t.Error("bandwidth demand unmet on empty network")
	}
	if res.NetworkUtility != 0 {
		t.Errorf("utility = %v, want 0 (150ms > 100ms cliff)", res.NetworkUtility)
	}
}

func TestWeightedNetworkUtility(t *testing.T) {
	topo := line(t, 100*unit.Mbps)
	// Two aggregates: one satisfied (utility 1), one on a path that kills
	// its delay component (utility 0). Equal flows; weight the satisfied
	// one 3x: network utility = 3/4.
	b := topology.NewBuilder("w")
	b.AddLink("A", "B", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 200*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 10, Fn: utility.RealTime(), Weight: 3},
		{Src: 0, Dst: 2, Class: utility.ClassRealTime, Flows: 10, Fn: utility.RealTime(), Weight: 1},
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 10, pathBetween(t, topo, "A", "B")),
		NewBundle(topo, 1, 10, pathBetween(t, topo, "A", "C")),
	})
	if math.Abs(res.AggUtility[0]-1) > 1e-9 || math.Abs(res.AggUtility[1]-0) > 1e-9 {
		t.Fatalf("agg utilities = %v", res.AggUtility)
	}
	if math.Abs(res.NetworkUtility-0.75) > 1e-9 {
		t.Errorf("weighted utility = %v, want 0.75", res.NetworkUtility)
	}
}

func TestSplitAggregateUtilityIsFlowWeighted(t *testing.T) {
	// One aggregate split across two bundles: 3 flows satisfied on a fast
	// path, 1 flow dead on a slow path -> aggregate utility 0.75.
	b := topology.NewBuilder("split")
	b.AddLink("A", "B", 100*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 200*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 5*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 4, Fn: utility.RealTime()},
	})
	m, _ := New(topo, mat)
	fast := pathBetween(t, topo, "A", "B")
	slow := graph.Path{Edges: []graph.EdgeID{linkBetween(t, topo, "A", "C"), linkBetween(t, topo, "C", "B")}, Weight: 205}
	if err := slow.Validate(topo.Graph(), 0, 1); err != nil {
		t.Fatal(err)
	}
	res := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 3, fast),
		NewBundle(topo, 0, 1, slow),
	})
	if math.Abs(res.AggUtility[0]-0.75) > 1e-9 {
		t.Errorf("split utility = %v, want 0.75", res.AggUtility[0])
	}
}

// When a shared link saturates first, *all* bundles crossing it freeze at
// their simultaneous-filling rates (the §2.3 "no more room to grow" rule),
// splitting the capacity in inverse-RTT proportion.
func TestSharedLinkFreezesAllCrossers(t *testing.T) {
	// A--B at 1 Mbps, B--C at 0.5 Mbps. Both bundles grow together; A--B
	// (total weight 1/40+1/20) fills before B--C (weight 1/40 alone), so
	// both stop there with rates proportional to 1/RTT: 333 vs 667.
	b := topology.NewBuilder("shared")
	b.AddLink("A", "B", 1*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("B", "C", 500*unit.Kbps, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	big := utility.LargeFile(10 * 1000 * unit.Kbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassLargeFile, Flows: 1, Fn: big},
		{Src: 0, Dst: 1, Class: utility.ClassLargeFile, Flows: 1, Fn: big},
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 1, pathBetween(t, topo, "A", "C")),
		NewBundle(topo, 1, 1, pathBetween(t, topo, "A", "B")),
	})
	r1, r2 := res.BundleRate[0], res.BundleRate[1]
	if math.Abs(r1-1000.0/3) > 1 {
		t.Errorf("A->C rate = %v, want ~333 (1/RTT share of A--B)", r1)
	}
	if math.Abs(r2-2000.0/3) > 1 {
		t.Errorf("A->B rate = %v, want ~667", r2)
	}
	// B--C never saturated: 333 < 500.
	bc := linkBetween(t, topo, "B", "C")
	if res.IsCongested[bc] {
		t.Error("B->C reported congested at 333/500 kbps")
	}
}

// A bundle truncated by its own narrow downstream link releases upstream
// capacity to the other bundle — §2.3's "each congested link truncates the
// demands of flows that traverse it, so affects the distribution of flows
// on other congested links".
func TestCascadedBottlenecks(t *testing.T) {
	b := topology.NewBuilder("cascade")
	b.AddLink("A", "B", 1*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("B", "C", 100*unit.Kbps, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	big := utility.LargeFile(10 * 1000 * unit.Kbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassLargeFile, Flows: 1, Fn: big},
		{Src: 0, Dst: 1, Class: utility.ClassLargeFile, Flows: 1, Fn: big},
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 1, pathBetween(t, topo, "A", "C")),
		NewBundle(topo, 1, 1, pathBetween(t, topo, "A", "B")),
	})
	r1, r2 := res.BundleRate[0], res.BundleRate[1]
	// B--C fills at t=100/(1/40)=4000 before A--B at t=1000/(0.075)=13333:
	// bundle1 freezes at 100 kbps, bundle2 then takes A--B's residual 900.
	if math.Abs(r1-100) > 1 {
		t.Errorf("A->C rate = %v, want ~100 (truncated by B--C)", r1)
	}
	if math.Abs(r2-900) > 1 {
		t.Errorf("A->B rate = %v, want ~900 (rest of A--B)", r2)
	}
}

func TestCongestedByOversubscription(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	big := utility.LargeFile(10 * 1000 * unit.Kbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassLargeFile, Flows: 1, Fn: big}, // A->B only
		{Src: 0, Dst: 2, Class: utility.ClassLargeFile, Flows: 1, Fn: big}, // A->C
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{
		NewBundle(topo, 0, 1, pathBetween(t, topo, "A", "B")),
		NewBundle(topo, 1, 1, pathBetween(t, topo, "A", "C")),
	})
	ranked := m.CongestedByOversubscription(res)
	if len(ranked) == 0 {
		t.Fatal("no congestion found")
	}
	// A->B carries demand 20 Mbps (both bundles), B->C only 10 Mbps, so
	// A->B must rank first.
	ab := pathBetween(t, topo, "A", "B").Edges[0]
	if ranked[0] != ab {
		t.Errorf("top oversubscribed = %v, want %v (A->B)", ranked[0], ab)
	}
	for i := 1; i < len(ranked); i++ {
		if m.Oversubscription(res, ranked[i-1]) < m.Oversubscription(res, ranked[i]) {
			t.Error("ranking not sorted by oversubscription")
		}
	}
}

func TestUtilizationMetrics(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	mat := mustMatrix(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps demand on 1 Mbps link
	})
	m, _ := New(topo, mat)
	res := m.NewEval().Evaluate([]Bundle{NewBundle(topo, 0, 10, pathBetween(t, topo, "A", "B"))})
	// One used link: load 1 Mbps / cap 1 Mbps = 1.0; demand 2 Mbps / 1 = 2.
	if math.Abs(res.ActualUtilization-1) > 1e-9 {
		t.Errorf("actual utilization = %v, want 1", res.ActualUtilization)
	}
	if math.Abs(res.DemandedUtilization-2) > 1e-9 {
		t.Errorf("demanded utilization = %v, want 2", res.DemandedUtilization)
	}
}

func TestEvaluateIsRepeatable(t *testing.T) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(5))
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
		p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			t.Fatalf("no path for aggregate %d", a.ID)
		}
		bundles = append(bundles, NewBundle(topo, a.ID, a.Flows, p))
	}
	arena := m.NewEval()
	first := arena.Evaluate(bundles).Clone()
	requireIdentical(t, "second evaluation", first, arena.Evaluate(bundles))
}

func TestNewModelValidation(t *testing.T) {
	topo := line(t, 1*unit.Mbps)
	if _, err := New(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
	other := line(t, 2*unit.Mbps)
	mat := mustMatrix(t, other, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 1, Fn: utility.Bulk()},
	})
	if _, err := New(topo, mat); err == nil {
		t.Error("cross-topology matrix accepted")
	}
}

func TestBundleRTTFloor(t *testing.T) {
	b := Bundle{Delay: 0, Edges: []graph.EdgeID{0}}
	if got := b.RTT(); got != minRTTMs {
		t.Errorf("RTT = %v, want floor %v", got, minRTTMs)
	}
	b2 := Bundle{Delay: 50}
	if got := b2.RTT(); got != 100 {
		t.Errorf("RTT = %v, want 100", got)
	}
}
