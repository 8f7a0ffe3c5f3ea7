package core

import (
	"context"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/verify"
)

// srlgPolicy forbids the given physical links, as the scenario engine
// does for an SRLG failure or maintenance drain.
func srlgPolicy(topo *topology.Topology, links ...topology.LinkID) pathgen.Policy {
	return pathgen.Policy{ForbiddenLinks: pathgen.ForbidLinks(topo, links...)}
}

// TestRepairWarmStartSRLGCorrelatedFailure: a correlated failure that
// kills *every* installed path of an aggregate must rehome the whole
// demand onto the lowest-delay policy-compliant survivor — never
// black-hole a flow.
func TestRepairWarmStartSRLGCorrelatedFailure(t *testing.T) {
	topo := fanTopo(t)
	mat, err := traffic.NewMatrix(topo, fanAggs(9))
	if err != nil {
		t.Fatal(err)
	}
	// Installed across the direct link and the C and D detours; the
	// shared conduit carries all three.
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 3, 0),
		fanBundle(topo, 0, 3, 2, 4),
		fanBundle(topo, 0, 3, 6, 8),
	}
	policy := srlgPolicy(topo, 0, 2, 6) // A->B, A->C, A->D and reverses

	repaired, stats, err := RepairWarmStart(topo, mat, installed, policy, 0)
	if err != nil {
		t.Fatalf("RepairWarmStart: %v", err)
	}
	if stats.DroppedBundles != 3 {
		t.Errorf("DroppedBundles = %d, want 3", stats.DroppedBundles)
	}
	if stats.MovedFlows != 9 || stats.ReroutedAggregates != 1 {
		t.Errorf("MovedFlows/Rerouted = %d/%d, want 9/1", stats.MovedFlows, stats.ReroutedAggregates)
	}
	// Everything lands on the only compliant route, A-E-B.
	if len(repaired) != 1 || repaired[0].Flows != 9 {
		t.Fatalf("repaired = %+v, want one 9-flow bundle", repaired)
	}
	if want := []topology.LinkID{10, 12}; !reflect.DeepEqual(repaired[0].Edges, want) {
		t.Fatalf("rehomed onto %v, want lowest-delay fallback %v", repaired[0].Edges, want)
	}
	if err := verify.Allocation(topo, mat, repaired, policy.ForbiddenLinks); err != nil {
		t.Fatal(err)
	}
	// No black hole: the repaired allocation evaluates with every flow
	// carried at a positive rate.
	m := mustModel(t, topo, fanAggs(9))
	res := m.NewEval().Evaluate(repaired)
	for i, rate := range res.BundleRate {
		if rate <= 0 {
			t.Fatalf("repaired bundle %d black-holed (rate %v)", i, rate)
		}
	}
	// And it is a valid warm start for a run under the same policy.
	sol, err := runWarm(context.Background(), m, Options{Policy: policy, Workers: 1}, repaired)
	if err != nil {
		t.Fatalf("warm-started Run after SRLG repair: %v", err)
	}
	if sol.Utility <= 0 {
		t.Fatalf("post-repair utility %v", sol.Utility)
	}
}

// TestRepairWarmStartSRLGPartialSurvivors: when the shared-risk group
// only covers some installed paths, displaced flows fold onto the
// survivors by largest-remainder rescale instead of rerouting.
func TestRepairWarmStartSRLGPartialSurvivors(t *testing.T) {
	topo := fanTopo(t)
	mat, err := traffic.NewMatrix(topo, fanAggs(10))
	if err != nil {
		t.Fatal(err)
	}
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 6, 0),
		fanBundle(topo, 0, 4, 2, 4),
	}
	repaired, stats, err := RepairWarmStart(topo, mat, installed, srlgPolicy(topo, 0), 0)
	if err != nil {
		t.Fatalf("RepairWarmStart: %v", err)
	}
	if stats.ReroutedAggregates != 0 {
		t.Errorf("rerouted %d aggregates, want 0 (a path survived)", stats.ReroutedAggregates)
	}
	if stats.RescaledAggregates != 1 || stats.MovedFlows != 6 {
		t.Errorf("Rescaled/MovedFlows = %d/%d, want 1/6", stats.RescaledAggregates, stats.MovedFlows)
	}
	if len(repaired) != 1 || repaired[0].Flows != 10 || repaired[0].Edges[0] != 2 {
		t.Fatalf("repaired = %+v, want all 10 flows on the C detour", repaired)
	}
}

// TestRepairWarmStartMaintenanceRoundTrip: draining a link moves its
// flows off; restoring the link makes the drained allocation repair to
// itself (a no-op), and a warm-started re-optimization may then move
// traffic back.
func TestRepairWarmStartMaintenanceRoundTrip(t *testing.T) {
	topo := fanTopo(t)
	mat, err := traffic.NewMatrix(topo, fanAggs(9))
	if err != nil {
		t.Fatal(err)
	}
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 5, 0),
		fanBundle(topo, 0, 4, 2, 4),
	}

	// Drain the direct link for maintenance.
	drain := srlgPolicy(topo, 0)
	drained, stats, err := RepairWarmStart(topo, mat, installed, drain, 0)
	if err != nil {
		t.Fatalf("drain repair: %v", err)
	}
	if stats.MovedFlows != 5 {
		t.Errorf("drain moved %d flows, want 5", stats.MovedFlows)
	}
	if len(drained) != 1 || drained[0].Flows != 9 {
		t.Fatalf("drained = %+v, want one 9-flow bundle on the survivor", drained)
	}
	if err := verify.Allocation(topo, mat, drained, drain.ForbiddenLinks); err != nil {
		t.Fatalf("drained: %v", err)
	}

	// Maintenance ends: with nothing forbidden the drained allocation is
	// already valid — the repair must be an exact no-op.
	restored, stats, err := RepairWarmStart(topo, mat, drained, pathgen.Policy{}, 0)
	if err != nil {
		t.Fatalf("restore repair: %v", err)
	}
	if stats != (RepairStats{}) {
		t.Errorf("restore repair did work: %+v", stats)
	}
	if !reflect.DeepEqual(restored, drained) {
		t.Fatalf("restore changed the allocation:\n drained  %+v\n restored %+v", drained, restored)
	}

	// A warm-started re-optimization on the restored topology is free to
	// use the returned link again and must not lose utility.
	m := mustModel(t, topo, fanAggs(9))
	stale := m.NewEval().Evaluate(restored).NetworkUtility
	sol, err := runWarm(context.Background(), m, Options{Workers: 1}, restored)
	if err != nil {
		t.Fatalf("warm-started Run after maintenance: %v", err)
	}
	if sol.Utility < stale-1e-9 {
		t.Fatalf("re-optimization lost utility: %.6f -> %.6f", stale, sol.Utility)
	}
}
