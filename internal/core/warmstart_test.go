package core

import (
	"context"
	"strings"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
	"fubar/internal/verify"
)

// fanTopo builds A->B with three parallel two-hop detours:
//
//	A--B direct (10ms), A--C--B, A--D--B, A--E--B (15+15ms each).
//
// Link IDs follow build order: 0/1 A<->B, 2..5 A<->C<->B, 6..9 A<->D<->B,
// 10..13 A<->E<->B.
func fanTopo(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("fan")
	b.AddLink("A", "B", 2*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("A", "D", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("D", "B", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("A", "E", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("E", "B", 100*unit.Mbps, 15*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func fanAggs(flows int) []traffic.Aggregate {
	return []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: flows, Fn: utility.Bulk()},
	}
}

func fanBundle(topo *topology.Topology, agg traffic.AggregateID, flows int, edges ...graph.EdgeID) flowmodel.Bundle {
	return flowmodel.NewBundle(topo, agg, flows, graph.Path{Edges: edges})
}

// runWarm builds an optimizer over model with opts and runs it warm-started
// from initial.
func runWarm(ctx context.Context, model *flowmodel.Model, opts Options, initial []flowmodel.Bundle) (*Solution, error) {
	o, err := New(model, opts)
	if err != nil {
		return nil, err
	}
	return o.RunWarm(ctx, initial)
}

// TestWarmStartValidationErrors exercises every applyWarmStart error
// path directly: unknown aggregate, negative flows, path-set-limit
// overflow and flow-count mismatch.
func TestWarmStartValidationErrors(t *testing.T) {
	topo := fanTopo(t)
	m := mustModel(t, topo, fanAggs(9))

	cases := []struct {
		name    string
		bundles []flowmodel.Bundle
		opts    Options
		wantErr string
	}{
		{
			name:    "unknown aggregate",
			bundles: []flowmodel.Bundle{fanBundle(topo, 5, 9, 0)},
			wantErr: "unknown aggregate",
		},
		{
			name:    "negative flows",
			bundles: []flowmodel.Bundle{fanBundle(topo, 0, -1, 0), fanBundle(topo, 0, 10, 0)},
			wantErr: "negative flows",
		},
		{
			name: "path-set-limit overflow",
			bundles: []flowmodel.Bundle{
				fanBundle(topo, 0, 3, 0),
				fanBundle(topo, 0, 3, 2, 4),
				fanBundle(topo, 0, 3, 6, 8),
			},
			opts:    Options{MaxPathsPerAggregate: 2},
			wantErr: "exceeds path-set limit",
		},
		{
			name:    "flow-count mismatch (under)",
			bundles: []flowmodel.Bundle{fanBundle(topo, 0, 5, 0)},
			wantErr: "covers 5 flows",
		},
		{
			name: "flow-count mismatch (over)",
			bundles: []flowmodel.Bundle{
				fanBundle(topo, 0, 9, 0),
				fanBundle(topo, 0, 2, 2, 4),
			},
			wantErr: "covers 11 flows",
		},
		{
			name:    "invalid path endpoints",
			bundles: []flowmodel.Bundle{fanBundle(topo, 0, 9, 2)}, // A->C only
			wantErr: "warm start path",
		},
	}
	for _, tc := range cases {
		_, err := runWarm(context.Background(), m, tc.opts, tc.bundles)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRepairWarmStartNoOp: repairing a valid warm start changes nothing.
func TestRepairWarmStartNoOp(t *testing.T) {
	topo := fanTopo(t)
	m := mustModel(t, topo, fanAggs(9))
	sol, err := Run(context.Background(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := RepairWarmStart(topo, m.Matrix(), sol.Bundles, pathgen.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (RepairStats{}) {
		t.Fatalf("no-op repair reported changes: %+v", stats)
	}
	if _, err := runWarm(context.Background(), m, Options{}, repaired); err != nil {
		t.Fatalf("repaired warm start rejected: %v", err)
	}
}

// TestRepairWarmStartForbiddenLink: bundles crossing a forbidden link are
// dropped, their flows land on surviving or lowest-delay paths, and the
// repaired allocation warm-starts cleanly under the failure policy.
func TestRepairWarmStartForbiddenLink(t *testing.T) {
	topo := fanTopo(t)
	m := mustModel(t, topo, fanAggs(9))
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 6, 0),
		fanBundle(topo, 0, 3, 2, 4),
	}
	pol := pathgen.Policy{ForbiddenLinks: pathgen.ForbidLinks(topo, 0)}
	repaired, stats, err := RepairWarmStart(topo, m.Matrix(), installed, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedBundles != 1 || stats.MovedFlows != 6 {
		t.Fatalf("stats = %+v, want 1 dropped bundle / 6 moved flows", stats)
	}
	if err := verify.Allocation(topo, m.Matrix(), repaired, pol.ForbiddenLinks); err != nil {
		t.Fatalf("repaired: %v", err)
	}
	sol, err := runWarm(context.Background(), m, Options{Policy: pol}, repaired)
	if err != nil {
		t.Fatalf("warm start after repair rejected: %v", err)
	}
	if err := verify.Allocation(topo, m.Matrix(), sol.Bundles, pol.ForbiddenLinks); err != nil {
		t.Fatalf("solution: %v", err)
	}
}

// TestRepairWarmStartRemovedLink: bundles whose paths reference links
// that no longer exist (topology rebuilt without them) are dropped, so
// the warm start never fails validation after real graph surgery.
func TestRepairWarmStartRemovedLink(t *testing.T) {
	topo := fanTopo(t)
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 4, 0),
		fanBundle(topo, 0, 5, 10, 12), // via E — about to vanish
	}
	// Rebuild without the A--E--B detour: edge IDs 10..13 are gone.
	b := topology.NewBuilder("fan-minus-e")
	b.AddLink("A", "B", 2*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("A", "D", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("D", "B", 100*unit.Mbps, 15*unit.Millisecond)
	smaller, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.NewMatrix(smaller, fanAggs(9))
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := RepairWarmStart(smaller, mat, installed, pathgen.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedBundles != 1 || stats.MovedFlows != 5 {
		t.Fatalf("stats = %+v, want 1 dropped / 5 moved", stats)
	}
	model, err := flowmodel.New(smaller, mat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWarm(context.Background(), model, Options{}, repaired); err != nil {
		t.Fatalf("warm start after link removal rejected: %v", err)
	}
}

// TestRepairWarmStartRescalesDemand: when the matrix's flow counts
// change, repair rescales each aggregate's bundles by largest remainder
// so totals match exactly.
func TestRepairWarmStartRescalesDemand(t *testing.T) {
	topo := fanTopo(t)
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 6, 0),
		fanBundle(topo, 0, 3, 2, 4),
	}
	for _, newFlows := range []int{12, 5, 1, 90} {
		mat, err := traffic.NewMatrix(topo, fanAggs(newFlows))
		if err != nil {
			t.Fatal(err)
		}
		repaired, stats, err := RepairWarmStart(topo, mat, installed, pathgen.Policy{}, 0)
		if err != nil {
			t.Fatalf("flows=%d: %v", newFlows, err)
		}
		if stats.RescaledAggregates != 1 {
			t.Fatalf("flows=%d: stats = %+v, want 1 rescaled aggregate", newFlows, stats)
		}
		if err := verify.Allocation(topo, mat, repaired, nil); err != nil {
			t.Fatalf("flows=%d: %v", newFlows, err)
		}
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runWarm(context.Background(), model, Options{}, repaired); err != nil {
			t.Fatalf("flows=%d: warm start rejected: %v", newFlows, err)
		}
	}
}

// TestRepairWarmStartPathCap: surviving paths are folded down so the
// repaired warm start always fits the run's path-set limit.
func TestRepairWarmStartPathCap(t *testing.T) {
	topo := fanTopo(t)
	m := mustModel(t, topo, fanAggs(12))
	installed := []flowmodel.Bundle{
		fanBundle(topo, 0, 6, 2, 4),
		fanBundle(topo, 0, 4, 6, 8),
		fanBundle(topo, 0, 2, 10, 12),
	}
	// maxPaths=2 and the lowest-delay direct path is not installed, so
	// only one installed path may survive.
	repaired, stats, err := RepairWarmStart(topo, m.Matrix(), installed, pathgen.Policy{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 {
		t.Fatalf("repaired = %+v, want single folded bundle", repaired)
	}
	if repaired[0].Flows != 12 || stats.MovedFlows != 6 {
		t.Fatalf("fold wrong: %+v, stats %+v", repaired, stats)
	}
	if _, err := runWarm(context.Background(), m, Options{MaxPathsPerAggregate: 2}, repaired); err != nil {
		t.Fatalf("capped warm start rejected: %v", err)
	}

	// maxPaths=1: the budget only fits the lowest-delay path, so the
	// whole aggregate must fold onto it — never an overflow at Run.
	repaired, stats, err = RepairWarmStart(topo, m.Matrix(), installed, pathgen.Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != 1 || len(repaired[0].Edges) != 1 || repaired[0].Edges[0] != 0 {
		t.Fatalf("maxPaths=1 repair = %+v, want everything on the direct path", repaired)
	}
	if stats.ReroutedAggregates != 1 || stats.MovedFlows != 12 {
		t.Fatalf("maxPaths=1 stats = %+v", stats)
	}
	if _, err := runWarm(context.Background(), m, Options{MaxPathsPerAggregate: 1}, repaired); err != nil {
		t.Fatalf("maxPaths=1 warm start rejected: %v", err)
	}
}

// TestRepairWarmStartDropsUnknownAggregates: bundles keyed past the new
// matrix are dropped (departures), and uncovered aggregates (arrivals)
// get their lowest-delay path.
func TestRepairWarmStartDropsUnknownAggregates(t *testing.T) {
	topo := fanTopo(t)
	m := mustModel(t, topo, fanAggs(9))
	installed := []flowmodel.Bundle{
		fanBundle(topo, 3, 7, 0), // departed aggregate
	}
	repaired, stats, err := RepairWarmStart(topo, m.Matrix(), installed, pathgen.Policy{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DroppedBundles != 1 {
		t.Fatalf("stats = %+v, want 1 dropped", stats)
	}
	if len(repaired) != 1 || repaired[0].Agg != 0 || repaired[0].Flows != 9 {
		t.Fatalf("repaired = %+v, want aggregate 0 fully on lowest-delay path", repaired)
	}
	if _, err := runWarm(context.Background(), m, Options{}, repaired); err != nil {
		t.Fatalf("warm start rejected: %v", err)
	}
}
