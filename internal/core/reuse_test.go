package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/traffic"
)

// TestKeptRepairMatchesPackageRepair holds the repair an optimizer runs
// in the scratch it keeps (Optimizer.RepairWarmStart) to the package
// function, which repairs into scratch of its own, on the same inputs:
// rebindEpochs' instances in turn, each repairing what the last one
// installed and stale lists from epochs before, with bundles for unknown
// aggregates, non-positive flows, split and duplicated paths, and its own
// last output fed back in. Kept and fresh lists and stats must be equal
// entry for entry, whatever the scratch held — more aggregates, longer
// per-aggregate path lists, another instance's remainders.
func TestKeptRepairMatchesPackageRepair(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	var kept *Optimizer
	var history [][]flowmodel.Bundle
	repairs := 0
	for round := 0; round < 2; round++ {
		for _, ep := range rebindEpochs(t) {
			opts := Options{Workers: 1, Policy: ep.policy}
			model := ep.model(t)
			var err error
			if kept == nil {
				kept, err = New(model, opts)
			} else {
				err = kept.Rebind(model, opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			inputs := [][]flowmodel.Bundle{nil}
			for _, h := range history {
				inputs = append(inputs, h, mangle(rng, h))
			}
			for i, in := range inputs {
				got, gotStats, err := kept.RepairWarmStart(in)
				if err != nil {
					t.Fatalf("%s input %d: kept: %v", ep.name, i, err)
				}
				want, wantStats, err := RepairWarmStart(ep.topo, model.Matrix(), in, ep.policy, 0)
				if err != nil {
					t.Fatalf("%s input %d: package: %v", ep.name, i, err)
				}
				if gotStats != wantStats || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s input %d: kept scratch repairs to %d bundles %+v, package to %d %+v",
						ep.name, i, len(got), gotStats, len(want), wantStats)
				}
				// Its own output, fed back: the repair reads all of its input
				// before it writes the list it returns.
				again, againStats, err := kept.RepairWarmStart(got)
				if err != nil {
					t.Fatalf("%s input %d: kept, fed back: %v", ep.name, i, err)
				}
				wantAgain, wantAgainStats, err := RepairWarmStart(ep.topo, model.Matrix(), want, ep.policy, 0)
				if err != nil {
					t.Fatal(err)
				}
				if againStats != wantAgainStats || !reflect.DeepEqual(again, wantAgain) {
					t.Fatalf("%s input %d: repairing the kept list into itself differs from the package repair", ep.name, i)
				}
				repairs += 2
			}
			sol, err := kept.RunWarm(ctx, nil)
			if err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			history = append(history, sol.Bundles)
			if len(history) > 3 {
				history = history[1:]
			}
		}
	}
	if repairs < 50 {
		t.Fatalf("only %d repairs compared", repairs)
	}
}

// mangle returns a copy of an installed list with what a repair must drop,
// merge or rescale: flows moved between bundles, a bundle split in two on
// one path, an unknown aggregate, a non-positive flow count and a path
// cut short.
func mangle(rng *rand.Rand, in []flowmodel.Bundle) []flowmodel.Bundle {
	out := slices.Clone(in)
	for i := range out {
		if rng.Intn(3) == 0 {
			out[i].Flows += rng.Intn(5) - 2
		}
	}
	if len(in) > 0 {
		b := in[rng.Intn(len(in))]
		b.Flows = 1
		out = append(out, b, flowmodel.Bundle{Agg: traffic.AggregateID(1 << 20), Flows: 3}, flowmodel.Bundle{Agg: b.Agg, Flows: -1})
		if c := in[rng.Intn(len(in))]; len(c.Edges) > 1 {
			c.Edges = slices.Clone(c.Edges[:len(c.Edges)-1])
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestRunWarmIntoMatchesRunWarm holds a solution written into storage kept
// from run to run (Optimizer.RunWarmInto, what a replay epoch runs) to the
// caller-owned one RunWarm returns: over rebindEpochs' instances, warm-started
// from each one's repaired predecessor, one kept optimizer writing one kept
// Solution yields the bundles, result and counters a fresh optimizer's
// RunWarm does (bar Paths, which counts how lookups the kept memo answers
// were answered). The kept Solution's Edges share the optimizer's path sets,
// so the solutions of every earlier epoch, copied when they were made, must
// still read as they did: nothing rewrites a path.
func TestRunWarmIntoMatchesRunWarm(t *testing.T) {
	ctx := context.Background()
	var kept *Optimizer
	var into Solution
	var installed []flowmodel.Bundle
	type snapshot struct {
		bundles []flowmodel.Bundle
		edges   [][]graph.EdgeID
	}
	var earlier []snapshot
	for _, workers := range []int{1, 3} {
		for _, ep := range rebindEpochs(t) {
			opts := Options{Workers: workers, Policy: ep.policy}
			var err error
			if kept == nil {
				kept, err = New(ep.model(t), opts)
			} else {
				err = kept.Rebind(ep.model(t), opts)
			}
			if err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			fresh, err := New(ep.model(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := kept.RepairWarmStart(installed)
			if err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			want, err := fresh.RunWarm(ctx, slices.Clone(warm))
			if err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			if err := kept.RunWarmInto(ctx, warm, &into); err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
			name := fmt.Sprintf("workers-%d/%s", workers, ep.name)
			if !reflect.DeepEqual(into.Bundles, want.Bundles) || !sameResult(into.Result, want.Result) {
				t.Fatalf("%s: the kept solution differs from RunWarm's", name)
			}
			if into.Utility != want.Utility || into.InitialUtility != want.InitialUtility || into.Steps != want.Steps ||
				into.Stop != want.Stop || into.Delta != want.Delta || into.Base != want.Base ||
				into.ListBuilds != want.ListBuilds || into.RefutedBundles != want.RefutedBundles ||
				into.PathsPerAggregate != want.PathsPerAggregate {
				t.Fatalf("%s: the kept solution's counters differ from RunWarm's", name)
			}
			for i, s := range earlier {
				for j, b := range s.bundles {
					if !slices.Equal(b.Edges, s.edges[j]) {
						t.Fatalf("%s: epoch %d's bundle %d now reads path %v, was %v", name, i, j, b.Edges, s.edges[j])
					}
				}
			}
			s := snapshot{bundles: slices.Clone(into.Bundles)}
			for _, b := range into.Bundles {
				s.edges = append(s.edges, slices.Clone(b.Edges))
			}
			earlier = append(earlier, s)
			installed = into.Bundles
		}
	}
}

// sameResult compares two evaluations field by field, an empty slice equal
// to a nil one: a result cloned into kept storage keeps its slices.
func sameResult(a, b *flowmodel.Result) bool {
	return slices.Equal(a.BundleRate, b.BundleRate) && slices.Equal(a.BundleSatisfied, b.BundleSatisfied) &&
		slices.Equal(a.LinkLoad, b.LinkLoad) && slices.Equal(a.LinkDemand, b.LinkDemand) &&
		slices.Equal(a.Congested, b.Congested) && slices.Equal(a.IsCongested, b.IsCongested) &&
		slices.Equal(a.AggUtility, b.AggUtility) && a.NetworkUtility == b.NetworkUtility &&
		a.ActualUtilization == b.ActualUtilization && a.DemandedUtilization == b.DemandedUtilization
}
