package core

import (
	"context"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/instance"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// MaxPathsPerAggregate caps the §2.4 path set: no aggregate's final
// allocation may use more distinct paths than the cap, and path sets only
// grow toward it.
func TestMaxPathsPerAggregateRespected(t *testing.T) {
	topo, err := topology.Ring(10, 8, 1*unit.Mbps, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(8)
	cfg.RealTimeFlows = [2]int{4, 16}
	cfg.BulkFlows = [2]int{2, 8}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const cap = 3
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Run(context.Background(), m, Options{MaxPathsPerAggregate: cap})
	if err != nil {
		t.Fatal(err)
	}
	perAgg := map[traffic.AggregateID]int{}
	for _, b := range sol.Bundles {
		if len(b.Edges) > 0 {
			perAgg[b.Agg]++
		}
	}
	for agg, n := range perAgg {
		if n > cap {
			t.Errorf("aggregate %d uses %d paths, cap is %d", agg, n, cap)
		}
	}
	if sol.PathsPerAggregate > cap {
		t.Errorf("mean paths/aggregate %v exceeds cap %d", sol.PathsPerAggregate, cap)
	}
}

// A tighter path cap can only restrict the search: utility with cap 2
// must not beat cap 15 by more than noise on the same instance.
func TestPathCapMonotonicity(t *testing.T) {
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := instance.Calibration(33)
	cfg.BulkFlows = [2]int{1, 5}
	cfg.IncludeSelfPairs = true
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	utilAt := func(cap int) float64 {
		m, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Run(context.Background(), m, Options{MaxPathsPerAggregate: cap})
		if err != nil {
			t.Fatal(err)
		}
		return sol.Utility
	}
	tight, loose := utilAt(2), utilAt(15)
	// Greedy search is not strictly monotone in the cap, but a dramatic
	// win for the tighter cap would indicate broken bookkeeping.
	if tight > loose+0.05 {
		t.Errorf("cap=2 utility %v far exceeds cap=15 utility %v", tight, loose)
	}
}

// Aggregates whose lowest-delay path is the only usable one (disconnected
// alternatives via policy) still optimize without panicking.
func TestSingleUsablePath(t *testing.T) {
	b := topology.NewBuilder("chain")
	b.AddLink("A", "B", 500*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("B", "C", 500*unit.Kbps, 5*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
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
	if sol.Stop != StopLocalOptimum {
		t.Errorf("stop = %v, want local-optimum (no alternatives exist)", sol.Stop)
	}
	if sol.Steps != 0 {
		t.Errorf("steps = %d, want 0 (nothing to move)", sol.Steps)
	}
}
