package core

import (
	"context"
	"math/rand"
	"testing"

	"fubar/internal/baseline"
	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/verify"
)

// propInstance builds one seeded congested instance.
func propInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix, *flowmodel.Model) {
	t.Helper()
	topo, err := topology.Ring(8, 4, 800*unit.Kbps, seed)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(seed)
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
	return topo, mat, model
}

// TestPropertyMoveSize: N depends on nothing but its three arguments (it is a
// plain function: the level rule re-derives the previous level's N from it
// instead of storing one), lies between 1 and the bundle for every positive
// bundle, never shrinks when the fraction grows — so along an escalation
// ladder a move size that stopped changing between two levels was the same at
// every level between — and is the whole bundle for a small aggregate at any
// fraction and for any aggregate at fraction 1.
func TestPropertyMoveSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		agg := 1 + rng.Intn(4*smallAggregateFlows)
		if i%4 == 0 {
			agg = 1 + rng.Intn(2000)
		}
		bundle := 1 + rng.Intn(agg)
		lo, hi := rng.Float64(), rng.Float64()
		if lo > hi {
			lo, hi = hi, lo
		}
		if i%2 == 0 { // the ladder the optimizer climbs
			lo, hi = moveFraction, moveFraction*escalationFactor
		}
		nLo, nHi, nAll := moveSize(agg, bundle, lo), moveSize(agg, bundle, hi), moveSize(agg, bundle, 1)
		if nLo < 1 || nLo > nHi || nHi > nAll || nAll != bundle {
			t.Fatalf("moveSize(%d, %d, ·) = %d at %v, %d at %v, %d at 1: want 1 <= non-decreasing <= the bundle at 1", agg, bundle, nLo, lo, nHi, hi, nAll)
		}
		if agg <= smallAggregateFlows && nLo != bundle {
			t.Fatalf("moveSize(%d, %d, %v) = %d: a small aggregate's bundle moves whole", agg, bundle, lo, nLo)
		}
		if moveSize(agg, 0, lo) != 0 {
			t.Fatalf("moveSize(%d, 0, %v) != 0", agg, lo)
		}
	}
}

// TestPropertyUtilityMonotoneAcrossSteps verifies the greedy invariant:
// every committed move strictly improves network utility, on many
// seeded instances (Listing 2 line 12: "commit the best utility
// change").
func TestPropertyUtilityMonotoneAcrossSteps(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		_, _, model := propInstance(t, seed)
		last := -1.0
		steps := 0
		sol, err := Run(context.Background(), model, Options{Trace: func(s Snapshot) {
			u := s.Result.NetworkUtility
			if u < last {
				t.Fatalf("seed %d: step %d lowered utility %.9f -> %.9f", seed, s.Step, last, u)
			}
			last = u
			steps = s.Step
		}})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if sol.Steps != steps {
			t.Fatalf("seed %d: solution reports %d steps, trace saw %d", seed, sol.Steps, steps)
		}
		if sol.Utility != last {
			t.Fatalf("seed %d: final utility %.9f != last trace %.9f", seed, sol.Utility, last)
		}
	}
}

// TestPropertyFlowConservation verifies, across seeds, that the final
// bundle set places every aggregate's flows exactly once over valid paths
// and that its rates — carried through every CommitDelta and RemapBase of
// the run — are certified max-min fair.
func TestPropertyFlowConservation(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		topo, mat, model := propInstance(t, seed)
		sol, err := Run(context.Background(), model, Options{})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if err := verify.Allocation(topo, mat, sol.Bundles, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.MaxMin(topo, mat, sol.Bundles, sol.Result.BundleRate, 1e-9); err != nil {
			t.Fatalf("seed %d, %d steps: %v", seed, sol.Steps, err)
		}
	}
}

// TestPropertyNeverBelowShortestPath: FUBAR starts from the
// shortest-path allocation and only commits improving moves, so its
// final utility can never fall below the shortest-path baseline.
func TestPropertyNeverBelowShortestPath(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		_, _, model := propInstance(t, seed)
		sp, err := baseline.ShortestPath(model, pathgen.Policy{})
		if err != nil {
			t.Fatalf("seed %d: ShortestPath: %v", seed, err)
		}
		spU := sp.Result.NetworkUtility
		sol, err := Run(context.Background(), model, Options{})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if sol.InitialUtility != spU {
			t.Fatalf("seed %d: initial utility %.9f != shortest-path %.9f", seed, sol.InitialUtility, spU)
		}
		if sol.Utility < spU {
			t.Fatalf("seed %d: final %.9f below shortest path %.9f", seed, sol.Utility, spU)
		}
	}
}

// TestPropertyPathSetBounded verifies the §2.4 path-set cap holds.
func TestPropertyPathSetBounded(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, _, model := propInstance(t, seed)
		sol, err := Run(context.Background(), model, Options{MaxPathsPerAggregate: 4})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if sol.PathsPerAggregate > 4 {
			t.Fatalf("seed %d: mean path-set size %.2f exceeds cap 4", seed, sol.PathsPerAggregate)
		}
		// No aggregate may spread over more than 4 distinct paths.
		perAgg := make(map[traffic.AggregateID]map[string]bool)
		for _, b := range sol.Bundles {
			key := ""
			for _, e := range b.Edges {
				key += string(rune(e)) + ","
			}
			if perAgg[b.Agg] == nil {
				perAgg[b.Agg] = make(map[string]bool)
			}
			perAgg[b.Agg][key] = true
		}
		for agg, paths := range perAgg {
			if len(paths) > 4 {
				t.Fatalf("seed %d: aggregate %d uses %d paths", seed, agg, len(paths))
			}
		}
	}
}

// TestPropertyDeterministicRuns verifies two runs over identical inputs
// commit identical moves.
func TestPropertyDeterministicRuns(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, _, m1 := propInstance(t, seed)
		_, _, m2 := propInstance(t, seed)
		s1, err := Run(context.Background(), m1, Options{})
		if err != nil {
			t.Fatalf("seed %d: Run 1: %v", seed, err)
		}
		s2, err := Run(context.Background(), m2, Options{})
		if err != nil {
			t.Fatalf("seed %d: Run 2: %v", seed, err)
		}
		if s1.Utility != s2.Utility || s1.Steps != s2.Steps || s1.Escalations != s2.Escalations {
			t.Fatalf("seed %d: runs diverged: %v/%d/%d vs %v/%d/%d", seed,
				s1.Utility, s1.Steps, s1.Escalations, s2.Utility, s2.Steps, s2.Escalations)
		}
		if len(s1.Bundles) != len(s2.Bundles) {
			t.Fatalf("seed %d: bundle counts differ: %d vs %d", seed, len(s1.Bundles), len(s2.Bundles))
		}
	}
}

// TestWarmStartMatchesInstalledState verifies a warm-started run begins
// at exactly the prior solution's utility and never falls below it.
func TestWarmStartMatchesInstalledState(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		_, _, model := propInstance(t, seed)
		first, err := Run(context.Background(), model, Options{})
		if err != nil {
			t.Fatalf("seed %d: first Run: %v", seed, err)
		}
		second, err := runWarm(context.Background(), model, Options{}, first.Bundles)
		if err != nil {
			t.Fatalf("seed %d: warm Run: %v", seed, err)
		}
		if second.InitialUtility != first.Utility {
			t.Fatalf("seed %d: warm start began at %.9f, installed state was %.9f",
				seed, second.InitialUtility, first.Utility)
		}
		if second.Utility < first.Utility {
			t.Fatalf("seed %d: warm-started run lost utility: %.9f -> %.9f",
				seed, first.Utility, second.Utility)
		}
	}
}

// TestWarmStartRejectsBadCoverage verifies validation of warm-start
// allocations.
func TestWarmStartRejectsBadCoverage(t *testing.T) {
	_, mat, model := propInstance(t, 3)
	sol, err := Run(context.Background(), model, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Drop one backbone bundle: under-coverage.
	var trimmed []flowmodel.Bundle
	dropped := false
	for _, b := range sol.Bundles {
		if !dropped && len(b.Edges) > 0 {
			dropped = true
			continue
		}
		trimmed = append(trimmed, b)
	}
	if _, err := runWarm(context.Background(), model, Options{}, trimmed); err == nil {
		t.Fatal("under-covering warm start accepted")
	}
	// Unknown aggregate.
	bad := append([]flowmodel.Bundle(nil), sol.Bundles...)
	bad[0].Agg = traffic.AggregateID(mat.NumAggregates())
	if _, err := runWarm(context.Background(), model, Options{}, bad); err == nil {
		t.Fatal("unknown aggregate in warm start accepted")
	}
	// Invalid path for its endpoints.
	bad2 := append([]flowmodel.Bundle(nil), sol.Bundles...)
	for i := range bad2 {
		if len(bad2[i].Edges) > 1 {
			bad2[i].Edges = bad2[i].Edges[:1] // truncated path: wrong endpoint
			if _, err := runWarm(context.Background(), model, Options{}, bad2); err == nil {
				t.Fatal("broken warm-start path accepted")
			}
			break
		}
	}
}
