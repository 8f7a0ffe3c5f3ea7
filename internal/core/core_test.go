package core

import (
	"context"
	"math"
	"testing"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
	"fubar/internal/verify"
)

// twoPath builds a topology where the lowest-delay path is too small for
// both aggregates but a slightly slower parallel path is free:
//
//	A--B direct (10ms, small), A--C--B (15+15ms, big).
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

func TestUncongestedTerminatesImmediately(t *testing.T) {
	topo := twoPath(t, 100*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stop != StopNoCongestion {
		t.Errorf("stop = %v, want no-congestion", sol.Stop)
	}
	if sol.Steps != 0 {
		t.Errorf("steps = %d, want 0", sol.Steps)
	}
	if math.Abs(sol.Utility-1) > 1e-9 {
		t.Errorf("utility = %v, want 1", sol.Utility)
	}
	if sol.Utility != sol.InitialUtility {
		t.Error("initial and final utility must match with no moves")
	}
}

// The canonical offload: two bulk aggregates share a too-small direct
// link; FUBAR must move traffic to the parallel path and beat
// shortest-path routing.
func TestOffloadImprovesUtility(t *testing.T) {
	topo := twoPath(t, 2*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps demand
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps demand
	})
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility <= sol.InitialUtility {
		t.Fatalf("no improvement: initial %v, final %v", sol.InitialUtility, sol.Utility)
	}
	// 4 Mbps demand, 2 Mbps direct + 100 Mbps alternate: congestion is
	// avoidable, and the delay penalty on A-C-B (30ms) costs bulk flows
	// nothing, so utility should reach ~1.
	if sol.Utility < 0.99 {
		t.Errorf("utility = %v, want ~1 after offload", sol.Utility)
	}
	if sol.Stop != StopNoCongestion {
		t.Errorf("stop = %v, want no-congestion", sol.Stop)
	}
	if sol.Steps == 0 {
		t.Error("no moves committed")
	}
}

// Real-time traffic must NOT be offloaded onto a path whose delay kills
// its utility, even to escape congestion, if that loses more than it
// gains; bulk moves instead.
func TestDelaySensitiveStaysOnFastPath(t *testing.T) {
	b := topology.NewBuilder("rt")
	b.AddLink("A", "B", 2*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 60*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 60*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mustModel(t, topo, []traffic.Aggregate{
		// Real-time: 120ms alternate path is beyond the 100ms cliff.
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 20, Fn: utility.RealTime()}, // 1 Mbps
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},         // 2 Mbps
	})
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Real-time aggregate should end with all flows on the direct path.
	for _, bun := range sol.Bundles {
		if bun.Agg != 0 || bun.Flows == 0 {
			continue
		}
		if bun.Delay > 100*unit.Millisecond {
			t.Errorf("real-time bundle with %d flows on %vms path", bun.Flows, float64(bun.Delay))
		}
	}
	// Real-time utility must be high: it fits in 1 of the 2 Mbps once
	// bulk is moved away.
	if sol.Result.AggUtility[0] < 0.95 {
		t.Errorf("real-time utility = %v, want >= 0.95", sol.Result.AggUtility[0])
	}
	if sol.Utility <= sol.InitialUtility {
		t.Error("no overall improvement")
	}
}

func TestFlowConservation(t *testing.T) {
	topo := twoPath(t, 1*unit.Mbps)
	aggs := []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 17, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 23, Fn: utility.RealTime()},
		{Src: 2, Dst: 1, Class: utility.ClassBulk, Flows: 9, Fn: utility.Bulk()},
	}
	m := mustModel(t, topo, aggs)
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Allocation(topo, m.Matrix(), sol.Bundles, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSelfPairsSurviveOptimization(t *testing.T) {
	topo := twoPath(t, 1*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 5, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.AggUtility[0] != 1 {
		t.Errorf("self-pair utility = %v, want 1", sol.Result.AggUtility[0])
	}
}

func TestTraceCallback(t *testing.T) {
	topo := twoPath(t, 2*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	var snaps []Snapshot
	var utils []float64
	sol, err := Run(context.Background(), m, Options{Trace: func(s Snapshot) {
		snaps = append(snaps, s)
		utils = append(utils, s.Result.NetworkUtility)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("got %d snapshots, want >= 2 (initial + moves)", len(snaps))
	}
	if snaps[0].Step != 0 {
		t.Error("first snapshot must be step 0")
	}
	if got := snaps[len(snaps)-1].Step; got != sol.Steps {
		t.Errorf("last snapshot step %d != solution steps %d", got, sol.Steps)
	}
	// Utility is non-decreasing across commits (greedy improvement).
	for i := 1; i < len(utils); i++ {
		if utils[i] < utils[i-1]-1e-9 {
			t.Errorf("utility decreased at step %d: %v -> %v", i, utils[i-1], utils[i])
		}
	}
}

func TestMaxStepsStops(t *testing.T) {
	topo := twoPath(t, 1*unit.Mbps)
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 50, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 50, Fn: utility.Bulk()},
	})
	sol, err := Run(context.Background(), m, Options{MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Steps > 1 {
		t.Errorf("steps = %d, want <= 1", sol.Steps)
	}
	if sol.Stop != StopMaxSteps && sol.Stop != StopNoCongestion && sol.Stop != StopLocalOptimum {
		t.Errorf("unexpected stop %v", sol.Stop)
	}
}

func TestDeadlineStops(t *testing.T) {
	topo, err := topology.HurricaneElectric(75 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, err := Run(ctx, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stop == StopDeadline && time.Since(start) > 10*time.Second {
		t.Error("deadline stop took far too long")
	}
}

// Whole-run invariant check on a mid-sized random instance: utility never
// decreases, final >= shortest path, capacity respected.
func TestOptimizerInvariantsOnRing(t *testing.T) {
	topo, err := topology.Ring(12, 8, 3*unit.Mbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(17)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 6}
	cfg.LargeFlows = [2]int{1, 2}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility < sol.InitialUtility-1e-9 {
		t.Errorf("final %v below shortest-path %v", sol.Utility, sol.InitialUtility)
	}
	if sol.PathsPerAggregate < 1 {
		t.Errorf("paths per aggregate = %v, want >= 1", sol.PathsPerAggregate)
	}
	if err := verify.Allocation(topo, mat, sol.Bundles, nil); err != nil {
		t.Fatal(err)
	}
	if err := verify.MaxMin(topo, mat, sol.Bundles, sol.Result.BundleRate, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	topo, err := topology.Ring(10, 6, 2*unit.Mbps, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(4)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Solution {
		m, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Run(context.Background(), m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	s1, s2 := run(), run()
	if s1.Utility != s2.Utility || s1.Steps != s2.Steps {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", s1.Utility, s1.Steps, s2.Utility, s2.Steps)
	}
}

func TestEscalationEscapesLocalOptimum(t *testing.T) {
	// With escalation disabled the optimizer may stop earlier (or equal);
	// escalation must never end worse.
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(33)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := flowmodel.New(topo, mat)
	with, err := Run(context.Background(), m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := flowmodel.New(topo, mat)
	without, err := Run(context.Background(), m2, Options{DisableEscalation: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Utility < without.Utility-1e-9 {
		t.Errorf("escalation hurt: %v < %v", with.Utility, without.Utility)
	}
}

func TestAltModes(t *testing.T) {
	topo, err := topology.Ring(8, 5, 1500*unit.Kbps, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(6)
	cfg.RealTimeFlows = [2]int{3, 12}
	cfg.BulkFlows = [2]int{2, 8}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	utilities := map[AltMode]float64{}
	for _, mode := range []AltMode{AltAll, AltGlobalOnly, AltLocalOnly, AltLinkLocalOnly} {
		m, _ := flowmodel.New(topo, mat)
		sol, err := Run(context.Background(), m, Options{AltMode: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		utilities[mode] = sol.Utility
		if sol.Utility < sol.InitialUtility-1e-9 {
			t.Errorf("mode %v went below shortest path", mode)
		}
	}
	// The full trio must be at least as good as each single-alternative
	// ablation is not guaranteed in theory (greedy), but it must at least
	// improve on shortest path and produce a sane value.
	if utilities[AltAll] <= 0 || utilities[AltAll] > 1 {
		t.Errorf("AltAll utility = %v", utilities[AltAll])
	}
	for m, u := range utilities {
		if m.String() == "unknown" {
			t.Errorf("mode %d has no name", m)
		}
		_ = u
	}
}

func TestMoveSize(t *testing.T) {
	// Small aggregate: whole bundle.
	if got := moveSize(8, 5, 0.25); got != 5 {
		t.Errorf("small aggregate move = %d, want 5", got)
	}
	// Large aggregate: fraction of total, capped by the bundle.
	if got := moveSize(100, 100, 0.25); got != 25 {
		t.Errorf("large move = %d, want 25", got)
	}
	if got := moveSize(100, 10, 0.25); got != 10 {
		t.Errorf("capped move = %d, want 10", got)
	}
	// Escalated to 1.0: whole aggregate.
	if got := moveSize(100, 100, 1.0); got != 100 {
		t.Errorf("escalated move = %d, want 100", got)
	}
	if got := moveSize(100, 0, 0.5); got != 0 {
		t.Errorf("empty bundle move = %d, want 0", got)
	}
}

func TestRunNilModel(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestStopReasonStrings(t *testing.T) {
	for _, r := range []StopReason{StopNoCongestion, StopLocalOptimum, StopMaxSteps, StopDeadline} {
		if r.String() == "unknown" {
			t.Errorf("reason %d unnamed", r)
		}
	}
	if StopReason(99).String() != "unknown" {
		t.Error("bogus reason named")
	}
}

func TestPolicyRespected(t *testing.T) {
	topo := twoPath(t, 1*unit.Mbps)
	// Forbid the C-leg: optimizer must keep everything on the direct link
	// even though it is congested.
	const ac = 2 // twoPath's A->C: link IDs follow build order
	forbidden := make([]bool, topo.NumLinks())
	forbidden[ac] = true
	m := mustModel(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 20, Fn: utility.Bulk()},
	})
	sol, err := Run(context.Background(), m, Options{Policy: pathgen.Policy{ForbiddenLinks: forbidden}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Allocation(topo, m.Matrix(), sol.Bundles, forbidden); err != nil {
		t.Error(err)
	}
	if sol.Stop != StopLocalOptimum {
		t.Errorf("stop = %v, want local-optimum (congestion unavoidable)", sol.Stop)
	}
}
