package dsim

import (
	"context"
	"math"
	"testing"

	"fubar/internal/baseline"
	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// bulkAt builds a bulk-like utility function with the given per-flow peak.
func bulkAt(t *testing.T, peak unit.Bandwidth) utility.Function {
	t.Helper()
	bw, err := utility.NewCurve(utility.Point{}, utility.Point{X: float64(peak), Y: 1})
	if err != nil {
		t.Fatalf("NewCurve: %v", err)
	}
	dl, err := utility.NewCurve(utility.Point{Y: 1}, utility.Point{X: 5000, Y: 0})
	if err != nil {
		t.Fatalf("NewCurve: %v", err)
	}
	fn, err := utility.NewFunction("test-bulk", bw, dl)
	if err != nil {
		t.Fatalf("NewFunction: %v", err)
	}
	return fn
}

// singleLink builds a two-node topology with one bidirectional link and
// a matrix with the given aggregates.
func singleLink(t *testing.T, capacity unit.Bandwidth, aggs []traffic.Aggregate) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	b := topology.NewBuilder("pipe")
	b.AddNode("a")
	b.AddNode("b")
	b.AddLink("a", "b", capacity, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	mat, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return topo, mat
}

// pathAB returns the one-hop path a->b on a singleLink topology.
func pathAB(topo *topology.Topology) graph.Path {
	for _, l := range topo.Links() {
		if l.From == 0 && l.To == 1 {
			return graph.Path{Edges: []graph.EdgeID{l.ID}}
		}
	}
	panic("no a->b link")
}

func TestUncongestedReachesDemand(t *testing.T) {
	topo, mat := singleLink(t, 10000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 5, Fn: bulkAt(t, 200*unit.Kbps), Weight: 1},
	})
	bundles := []flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 5, pathAB(topo))}
	res, err := Simulate(topo, mat, bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	want := 1000.0 // 5 flows x 200 kbps
	if got := res.Bundles[0].MeanRate; math.Abs(got-want)/want > 0.05 {
		t.Fatalf("uncongested mean rate %.1f, want ~%.1f", got, want)
	}
	if res.MeanQueueMs > 1 {
		t.Fatalf("uncongested link queued %.2f ms", res.MeanQueueMs)
	}
	if res.NetworkUtility < 0.95 {
		t.Fatalf("uncongested utility %.3f, want ~1", res.NetworkUtility)
	}
}

func TestCongestedConvergesNearCapacity(t *testing.T) {
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: bulkAt(t, 500*unit.Kbps), Weight: 1},
	})
	bundles := []flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 10, pathAB(topo))}
	res, err := Simulate(topo, mat, bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	got := res.Bundles[0].MeanRate
	// An AIMD sawtooth averages below capacity but should stay within
	// ~75-100% of it for a demand 5x over capacity.
	if got < 700 || got > 1050 {
		t.Fatalf("congested mean rate %.1f, want within [700,1050]", got)
	}
	if res.Bundles[0].Backoffs == 0 {
		t.Fatal("no backoffs on an oversubscribed link")
	}
	if res.MeanQueueMs <= 0 {
		t.Fatal("no queueing on an oversubscribed link")
	}
}

func TestRTTBiasMatchesModelAssumption(t *testing.T) {
	// Two aggregates share a bottleneck; the second has 10x the path RTT.
	// The model predicts throughput inversely proportional to RTT; the
	// simulated ratio should at least strongly favour the short-RTT one.
	b := topology.NewBuilder("rtt")
	b.AddNode("a")
	b.AddNode("b")
	b.AddNode("c")
	b.AddNode("d")
	b.AddLink("a", "c", 10000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("b", "c", 10000*unit.Kbps, 95*unit.Millisecond)
	b.AddLink("c", "d", 1000*unit.Kbps, 5*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	fn := bulkAt(t, 1000*unit.Kbps)
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 3, Class: utility.ClassBulk, Flows: 4, Fn: fn, Weight: 1},
		{Src: 1, Dst: 3, Class: utility.ClassBulk, Flows: 4, Fn: fn, Weight: 1},
	})
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	gen, err := pathgen.New(topo, pathgen.Policy{})
	if err != nil {
		t.Fatalf("pathgen.New: %v", err)
	}
	p0, ok := gen.LowestDelay(0, 3)
	if !ok {
		t.Fatal("no path 0->3")
	}
	p1, ok := gen.LowestDelay(1, 3)
	if !ok {
		t.Fatal("no path 1->3")
	}
	bundles := []flowmodel.Bundle{
		flowmodel.NewBundle(topo, 0, 4, p0),
		flowmodel.NewBundle(topo, 1, 4, p1),
	}
	res, err := Simulate(topo, mat, bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	short := res.Bundles[0].MeanRate
	long := res.Bundles[1].MeanRate
	if short <= long {
		t.Fatalf("short-RTT bundle got %.1f <= long-RTT %.1f", short, long)
	}
	if short/long < 2 {
		t.Fatalf("RTT bias too weak: ratio %.2f, want >= 2", short/long)
	}
}

func TestValidateAgainstModelOnRing(t *testing.T) {
	topo, err := topology.Ring(8, 4, 800*unit.Kbps, 5)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(5)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	simRes, err := Simulate(topo, mat, sol.Bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	val, err := Validate(sol.Bundles, sol.Result, simRes)
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if val.Bundles == 0 {
		t.Fatal("nothing compared")
	}
	if val.Correlation < 0.85 {
		t.Fatalf("model-vs-sim correlation %.3f, want >= 0.85", val.Correlation)
	}
	if val.MeanRelErr > 0.35 {
		t.Fatalf("mean relative error %.3f, want <= 0.35", val.MeanRelErr)
	}
	t.Logf("correlation=%.3f meanRelErr=%.3f maxRelErr=%.3f over %d bundles",
		val.Correlation, val.MeanRelErr, val.MaxRelErr, val.Bundles)
}

func TestFUBARQueuesLessThanShortestPath(t *testing.T) {
	topo, err := topology.Ring(8, 4, 800*unit.Kbps, 11)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(11)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	spSim, err := Simulate(topo, mat, sp.Bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate(sp): %v", err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	fuSim, err := Simulate(topo, mat, sol.Bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate(fubar): %v", err)
	}
	if fuSim.MeanQueueMs >= spSim.MeanQueueMs {
		t.Fatalf("FUBAR queues %.2f ms >= shortest-path %.2f ms",
			fuSim.MeanQueueMs, spSim.MeanQueueMs)
	}
	if fuSim.NetworkUtility <= spSim.NetworkUtility {
		t.Fatalf("FUBAR simulated utility %.4f <= shortest-path %.4f",
			fuSim.NetworkUtility, spSim.NetworkUtility)
	}
	t.Logf("queues: sp=%.2fms fubar=%.2fms; utility: sp=%.4f fubar=%.4f",
		spSim.MeanQueueMs, fuSim.MeanQueueMs, spSim.NetworkUtility, fuSim.NetworkUtility)
}

func TestSimulateDeterministic(t *testing.T) {
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 6, Fn: bulkAt(t, 300*unit.Kbps), Weight: 1},
	})
	bundles := []flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 6, pathAB(topo))}
	a, err := Simulate(topo, mat, bundles, Config{Seed: 9})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	b2, err := Simulate(topo, mat, bundles, Config{Seed: 9})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if a.Bundles[0].MeanRate != b2.Bundles[0].MeanRate || a.MeanQueueMs != b2.MeanQueueMs {
		t.Fatalf("same seed diverged: %.6f/%.6f vs %.6f/%.6f",
			a.Bundles[0].MeanRate, a.MeanQueueMs, b2.Bundles[0].MeanRate, b2.MeanQueueMs)
	}
}

func TestSimulateInvariants(t *testing.T) {
	topo, mat := singleLink(t, 500*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 3, Fn: bulkAt(t, 400*unit.Kbps), Weight: 1},
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 8, Fn: utility.RealTime(), Weight: 1},
	})
	p := pathAB(topo)
	bundles := []flowmodel.Bundle{
		flowmodel.NewBundle(topo, 0, 3, p),
		flowmodel.NewBundle(topo, 1, 8, p),
	}
	res, err := Simulate(topo, mat, bundles, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	for i, bs := range res.Bundles {
		if bs.MeanRate < 0 || bs.MinRate < 0 {
			t.Fatalf("bundle %d negative rate: %+v", i, bs)
		}
		if bs.MinRate > bs.MeanRate || bs.MeanRate > bs.MaxRate {
			t.Fatalf("bundle %d rate ordering broken: %+v", i, bs)
		}
		demand := float64(mat.Aggregate(bundles[i].Agg).DemandPerFlow()) * float64(bundles[i].Flows)
		if bs.MaxRate > demand*1.0001 {
			t.Fatalf("bundle %d exceeded demand: %.1f > %.1f", i, bs.MaxRate, demand)
		}
	}
	for l, ls := range res.Links {
		if ls.MeanQueueMs < 0 || ls.MaxQueueMs < ls.MeanQueueMs {
			t.Fatalf("link %d queue stats broken: %+v", l, ls)
		}
		if ls.MeanUtilization < 0 || ls.MeanUtilization > 1.0001 {
			t.Fatalf("link %d utilization %.4f outside [0,1]", l, ls.MeanUtilization)
		}
	}
	if res.NetworkUtility < 0 || res.NetworkUtility > 1 {
		t.Fatalf("network utility %.4f outside [0,1]", res.NetworkUtility)
	}
}

func TestQueueBoundedByLimit(t *testing.T) {
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 20, Fn: bulkAt(t, 500*unit.Kbps), Weight: 1},
	})
	bundles := []flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 20, pathAB(topo))}
	res, err := Simulate(topo, mat, bundles, Config{QueueLimitMs: 40})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.MaxQueueMs > 40*1.01 {
		t.Fatalf("queue %.1f ms exceeded 40 ms drop-tail limit", res.MaxQueueMs)
	}
}

func TestSimulateErrors(t *testing.T) {
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 2, Fn: bulkAt(t, 100*unit.Kbps), Weight: 1},
	})
	if _, err := Simulate(nil, mat, nil, Config{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Simulate(topo, nil, nil, Config{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := Simulate(topo, mat, nil, Config{}); err == nil {
		t.Fatal("empty allocation accepted")
	}
	bad := []flowmodel.Bundle{{Agg: 0, Flows: 2, Edges: []graph.EdgeID{99}}}
	if _, err := Simulate(topo, mat, bad, Config{}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	if _, err := Validate(nil, nil, nil); err == nil {
		t.Fatal("nil results accepted")
	}
	res := &flowmodel.Result{BundleRate: []float64{1}}
	sim := &Result{Bundles: make([]BundleStats, 2)}
	if _, err := Validate(make([]flowmodel.Bundle, 2), res, sim); err == nil {
		t.Fatal("mismatched sizes accepted")
	}
}

func TestPearson(t *testing.T) {
	if c := pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect positive correlation: got %.6f", c)
	}
	if c := pearson([]float64{1, 2, 3}, []float64{6, 4, 2}); math.Abs(c+1) > 1e-12 {
		t.Fatalf("perfect negative correlation: got %.6f", c)
	}
	if c := pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); c != 0 {
		t.Fatalf("zero-variance series: got %.6f", c)
	}
	if c := pearson(nil, nil); c != 0 {
		t.Fatalf("empty series: got %.6f", c)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.TickMs <= 0 || c.DurationMs <= 0 || c.WarmupMs <= 0 || c.WarmupMs >= c.DurationMs ||
		c.IncreaseGain <= 0 || c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 || c.QueueLimitMs <= 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{TickMs: 1, DurationMs: 1000, WarmupMs: 100, IncreaseGain: 2, DecreaseFactor: 0.5, QueueLimitMs: 10}.withDefaults()
	if c.TickMs != 1 || c.DurationMs != 1000 || c.WarmupMs != 100 || c.IncreaseGain != 2 ||
		c.DecreaseFactor != 0.5 || c.QueueLimitMs != 10 {
		t.Fatalf("explicit config clobbered: %+v", c)
	}
}

func TestDeadLinkStarvesBundle(t *testing.T) {
	// A zero-capacity link models a failure the routing has not reacted
	// to: bundles crossing it must starve, not divide by zero.
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 3, Fn: bulkAt(t, 200*unit.Kbps), Weight: 1},
	})
	dead, err := topo.WithLinkCapacity(0, 0)
	if err != nil {
		t.Fatalf("WithLinkCapacity: %v", err)
	}
	deadMat, err := traffic.NewMatrix(dead, mat.Aggregates())
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	bundles := []flowmodel.Bundle{flowmodel.NewBundle(dead, 0, 3, pathAB(dead))}
	res, err := Simulate(dead, deadMat, bundles, Config{DurationMs: 5000})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	// The AIMD loop backs off against the dead link forever; the mean
	// rate must be negligible next to demand (600 kbps).
	if res.Bundles[0].MeanRate > 30 {
		t.Fatalf("bundle over a dead link averaged %.1f kbps", res.Bundles[0].MeanRate)
	}
	if res.NetworkUtility > 0.2 {
		t.Fatalf("utility %.3f over a dead network", res.NetworkUtility)
	}
}

// TestSamePOPBundleQueuesNothing simulates only a same-POP aggregate: its
// edge-less bundle runs at its demand from the start, no link carries load
// or queues, and its utility is 1.
func TestSamePOPBundleQueuesNothing(t *testing.T) {
	topo, mat := singleLink(t, 1000*unit.Kbps, []traffic.Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 4, Fn: bulkAt(t, 200*unit.Kbps), Weight: 1},
	})
	res, err := Simulate(topo, mat, []flowmodel.Bundle{{Agg: 0, Flows: 4}}, Config{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	demand := float64(mat.Aggregate(0).DemandPerFlow()) * 4
	if got := res.Bundles[0].MeanRate; math.Abs(got-demand) > 1e-9*demand {
		t.Errorf("same-POP bundle mean rate %.3f kbps, want its demand %.3f", got, demand)
	}
	if res.MeanQueueMs != 0 || res.MaxQueueMs != 0 || res.Bundles[0].MeanQueueMs != 0 {
		t.Errorf("same-POP traffic queued: mean %v ms, max %v ms, bundle %v ms",
			res.MeanQueueMs, res.MaxQueueMs, res.Bundles[0].MeanQueueMs)
	}
	if res.NetworkUtility != 1 {
		t.Errorf("network utility %v, want 1", res.NetworkUtility)
	}
}
