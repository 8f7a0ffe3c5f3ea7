package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// sameOutcome fails the test unless two runs committed the same thing:
// bundles, utility bits, steps, escalations, stop reason and the final
// evaluation. What each run was asked to score on the way (Delta, Base,
// Paths, RefutedBundles) is what the rule changes, and is not compared.
func sameOutcome(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Utility != want.Utility || got.InitialUtility != want.InitialUtility ||
		got.Steps != want.Steps || got.Escalations != want.Escalations || got.Stop != want.Stop {
		t.Fatalf("%s: utility %v vs %v, steps %d vs %d, escalations %d vs %d, stop %v vs %v", what,
			got.Utility, want.Utility, got.Steps, want.Steps, got.Escalations, want.Escalations, got.Stop, want.Stop)
	}
	if !reflect.DeepEqual(got.Bundles, want.Bundles) {
		t.Fatalf("%s: committed bundles differ", what)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("%s: final evaluations differ", what)
	}
}

// TestRefutationAcrossRebind is the optimizer-level differential for the
// failed-step rule: two optimizers, one skipping refuted bundles and one
// (the oracle) enumerating everything, walk the same replay-like sequence
// of re-binds — arrivals, an SRLG failure, departures, a hop bound, a
// topology with another link count (so another stamp array) and back —
// warm-started from what the previous epoch committed, and commit the same
// solution every epoch at Workers {1, 4} × DeltaEval {Auto, Off}. The
// rule's own counters must not depend on the worker count either.
func TestRefutationAcrossRebind(t *testing.T) {
	ctx := context.Background()
	type counts struct {
		refuted int
		delta   flowmodel.DeltaStats
	}
	perWorkers := map[DeltaMode]map[int][]counts{DeltaAuto: {}, DeltaOff: {}}
	for _, workers := range []int{1, 4} {
		for _, mode := range []DeltaMode{DeltaAuto, DeltaOff} {
			t.Run(fmt.Sprintf("workers-%d/delta-%v", workers, mode), func(t *testing.T) {
				var rule, oracle *Optimizer
				var installed []flowmodel.Bundle
				skipped := 0
				for _, ep := range rebindEpochs(t) {
					opts := Options{Workers: workers, DeltaEval: mode, Policy: ep.policy}
					bind := func(o **Optimizer) {
						var err error
						if *o == nil {
							*o, err = New(ep.model(t), opts)
						} else {
							err = (*o).Rebind(ep.model(t), opts)
						}
						if err != nil {
							t.Fatalf("%s: %v", ep.name, err)
						}
					}
					bind(&rule)
					WithoutRefutation(func() { bind(&oracle) })
					warm, _, err := rule.RepairWarmStart(installed)
					if err != nil {
						t.Fatalf("%s: repair: %v", ep.name, err)
					}
					got, err := rule.RunWarm(ctx, warm)
					if err != nil {
						t.Fatalf("%s: %v", ep.name, err)
					}
					want, err := oracle.RunWarm(ctx, warm)
					if err != nil {
						t.Fatalf("%s: oracle: %v", ep.name, err)
					}
					sameOutcome(t, ep.name, got, want)
					if want.RefutedBundles != 0 {
						t.Fatalf("%s: the oracle skipped %d bundles", ep.name, want.RefutedBundles)
					}
					if got.Delta.Calls > want.Delta.Calls {
						t.Fatalf("%s: the rule scored %d candidates, the full enumeration %d", ep.name, got.Delta.Calls, want.Delta.Calls)
					}
					skipped += got.RefutedBundles
					perWorkers[mode][workers] = append(perWorkers[mode][workers], counts{got.RefutedBundles, got.Delta})
					installed = got.Bundles
				}
				if skipped == 0 {
					t.Error("no bundle was ever refuted; the comparison proves little")
				}
			})
		}
	}
	for mode, byWorkers := range perWorkers {
		if !reflect.DeepEqual(byWorkers[1], byWorkers[4]) {
			t.Errorf("delta-%v: RefutedBundles / Delta per epoch depend on the worker count:\n 1: %+v\n 4: %+v", mode, byWorkers[1], byWorkers[4])
		}
	}
}

// sparseInstance draws one small random instance for the refutation
// property: a ring of 6–11 nodes with a few chords or a 12–20 node Waxman
// graph, a sparse matrix, and link capacities low enough that shortest-path
// routing congests several links at once.
func sparseInstance(t *testing.T, seed int64) *flowmodel.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var topo *topology.Topology
	var err error
	capacity := unit.Bandwidth(300+rng.Intn(900)) * unit.Kbps
	if rng.Intn(3) == 0 {
		topo, err = topology.Waxman(12+rng.Intn(9), 0.3, 0.3, capacity, 40*unit.Millisecond, seed)
	} else {
		topo, err = topology.Ring(6+rng.Intn(6), 1+rng.Intn(5), capacity, seed)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{1, 4 + rng.Intn(12)}
	cfg.BulkFlows = [2]int{1, 3 + rng.Intn(6)}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, 12+rng.Intn(36))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return model
}

// TestRefutedCandidatesNeverBeatTheBound checks the proof itself, not its
// consequence: on 240 random sparse instances the oracle optimizer
// enumerates and scores every bundle the rule would have skipped, and each
// of their candidates scores at most uInit + minGain — it could not have
// been selected, nor have moved bestU. The same instances run with the rule
// on then commit the same solutions, skipping at least the bundles whose
// candidates the audit saw (a skipped bundle may have had none to score).
func TestRefutedCandidatesNeverBeatTheBound(t *testing.T) {
	ctx := context.Background()
	audited, skippedTotal, instances := 0, 0, 0
	for seed := int64(1); seed <= 240; seed++ {
		workers := 1 + int(seed%2)*3 // alternate Workers 1 and 4
		opts := Options{Workers: workers}
		var oracle *Optimizer
		WithoutRefutation(func() {
			var err error
			if oracle, err = New(sparseInstance(t, seed), opts); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		bundles, seen := 0, 0
		oracle.afterScoring = func(cands []candidate, bound float64) {
			if !oracle.refutedAny {
				return
			}
			last := [2]int{-1, -1} // a bundle's candidates are contiguous
			for _, c := range cands {
				if !oracle.refuted(oracle.aggs[c.agg].set.Path(c.from)) {
					continue
				}
				seen++
				if c.utility > bound {
					t.Errorf("seed %d: refuted bundle (agg %d, path %d) has a candidate scoring %v, above the bound %v by %g",
						seed, c.agg, c.from, c.utility, bound, c.utility-bound)
				}
				if src := [2]int{c.agg, c.from}; src != last {
					last = src
					bundles++
				}
			}
		}
		want, err := oracle.Run(ctx)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := Run(ctx, sparseInstance(t, seed), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sameOutcome(t, fmt.Sprintf("seed %d", seed), got, want)
		// The rule counts bundles it skips, candidates or not; the audit
		// sees only those that had candidates to score.
		if got.RefutedBundles < bundles {
			t.Fatalf("seed %d: the rule skipped %d bundles, the audit scored candidates of %d", seed, got.RefutedBundles, bundles)
		}
		audited += seen
		skippedTotal += got.RefutedBundles
		if seen > 0 {
			instances++
		}
	}
	t.Logf("%d refuted candidates audited on %d of 240 instances; the rule skipped %d bundles", audited, instances, skippedTotal)
	if instances < 120 {
		t.Errorf("only %d of 240 instances ever refuted a bundle; the property is barely exercised", instances)
	}
}

// TestSnapshotEscalation: a move committed after the move size was escalated
// is reported at the level it was committed at — Run used to reset the level
// before the only snapshot that read it, so every observer saw 0 — and the
// initial snapshot and every move of a run that may not escalate are level 0.
func TestSnapshotEscalation(t *testing.T) {
	// Seed 14 of the congested ring reaches a local optimum that only a
	// larger move size leaves: it commits one move two levels up.
	topo, mat := congestedInstance(t, 14)
	run := func(disable bool) (levels []int, sol *Solution) {
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		sol, err = Run(context.Background(), model, Options{Workers: 1, DisableEscalation: disable,
			Trace: func(s Snapshot) { levels = append(levels, s.Escalation) }})
		if err != nil {
			t.Fatal(err)
		}
		return levels, sol
	}
	levels, sol := run(false)
	if levels[0] != 0 {
		t.Errorf("initial snapshot reports escalation level %d", levels[0])
	}
	escalated, top := 0, 0
	for _, l := range levels {
		if l > 0 {
			escalated++
		}
		top = max(top, l)
	}
	if escalated == 0 {
		t.Fatalf("no snapshot reports an escalated move (%d escalations, %d steps)", sol.Escalations, sol.Steps)
	}
	if top > sol.Escalations {
		t.Errorf("a snapshot reports level %d, the run escalated %d times", top, sol.Escalations)
	}
	plain, psol := run(true)
	for i, l := range plain {
		if l != 0 {
			t.Errorf("DisableEscalation: snapshot %d reports level %d", i, l)
		}
	}
	if psol.Escalations != 0 || psol.Steps >= sol.Steps {
		t.Errorf("DisableEscalation: %d escalations, %d steps (escalating run: %d steps); the instance no longer needs escalation to progress",
			psol.Escalations, psol.Steps, sol.Steps)
	}
}

// TestStepEventCountsWhatTheRuleSkips: with telemetry on, the refuted-bundle
// counter equals Solution.RefutedBundles, the candidates counter what the
// run scored, and every core.step event says the level its move was
// committed at and the candidates and refuted bundles of its pass — whose
// sums cannot exceed the run's (failed passes emit no event).
func TestStepEventCountsWhatTheRuleSkips(t *testing.T) {
	topo, mat := congestedInstance(t, 14)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	var levels []int
	sol, err := Run(context.Background(), model, Options{Workers: 1, Telemetry: tel,
		Trace: func(s Snapshot) { levels = append(levels, s.Escalation) }})
	if err != nil {
		t.Fatal(err)
	}
	c := tel.Snapshot().Counters
	if got := c["fubar_core_refuted_bundles_total"]; got != int64(sol.RefutedBundles) || got == 0 {
		t.Errorf("fubar_core_refuted_bundles_total = %d, Solution.RefutedBundles = %d (want equal, > 0)", got, sol.RefutedBundles)
	}
	if got := c["fubar_core_candidates_collected_total"]; got != sol.Delta.Calls {
		t.Errorf("fubar_core_candidates_collected_total = %d, candidates scored = %d", got, sol.Delta.Calls)
	}
	step, candidates, refuted := 0, 0, 0
	for _, ev := range tel.Tracer.Recent() {
		if ev.Name != "core.step" {
			continue
		}
		step++
		if ev.Fields["step"] != step || ev.Fields["escalation"] != levels[step] {
			t.Errorf("core.step event %d: step %v at level %v, the snapshot said level %d", step, ev.Fields["step"], ev.Fields["escalation"], levels[step])
		}
		candidates += ev.Fields["candidates"].(int)
		refuted += ev.Fields["refuted"].(int)
	}
	if step != sol.Steps {
		t.Fatalf("%d core.step events for %d steps", step, sol.Steps)
	}
	if candidates == 0 || int64(candidates) > sol.Delta.Calls || refuted > sol.RefutedBundles {
		t.Errorf("events sum to %d candidates and %d refuted bundles; the run: %d and %d", candidates, refuted, sol.Delta.Calls, sol.RefutedBundles)
	}
}
