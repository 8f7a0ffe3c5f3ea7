package core

import (
	"context"
	"fmt"
	"math"
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
// of re-binds — arrivals, an SRLG failure, departures, a topology with
// another link count (so another stamp array) and back — warm-started from
// what the previous epoch committed, and commit the same solution every
// epoch at Workers {1, 4}, scoring incrementally and under the
// full-evaluation oracle. The rule's own counters must not depend on the
// worker count either.
func TestRefutationAcrossRebind(t *testing.T) {
	ctx := context.Background()
	type counts struct {
		refuted int
		delta   flowmodel.DeltaStats
	}
	perWorkers := map[bool]map[int][]counts{false: {}, true: {}}
	for _, workers := range []int{1, 4} {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers-%d/%s", workers, evalName[full]), func(t *testing.T) {
				var rule, oracle *Optimizer
				var installed []flowmodel.Bundle
				skipped := 0
				for _, ep := range rebindEpochs(t) {
					opts := Options{Workers: workers, Policy: ep.policy}
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
					Evaluating(full, func() {
						bind(&rule)
						WithoutRefutation(func() { bind(&oracle) })
					})
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
					perWorkers[full][workers] = append(perWorkers[full][workers], counts{got.RefutedBundles, got.Delta})
					installed = got.Bundles
				}
				if skipped == 0 {
					t.Error("no bundle was ever refuted; the comparison proves little")
				}
			})
		}
	}
	for full, byWorkers := range perWorkers {
		if !reflect.DeepEqual(byWorkers[1], byWorkers[4]) {
			t.Errorf("%s: RefutedBundles / Delta per epoch depend on the worker count:\n 1: %+v\n 4: %+v", evalName[full], byWorkers[1], byWorkers[4])
		}
	}
}

// sparseInstance draws one small random instance for the refutation
// property: a ring of 6–11 nodes with a few chords or a 12–20 node Waxman
// graph, a sparse matrix, and link capacities low enough that shortest-path
// routing congests several links at once. Seeds above 240 draw aggregates of
// up to 60 flows (and capacity to match), well above smallAggregateFlows, so
// that an escalation does change some bundles' move size.
func sparseInstance(t *testing.T, seed int64) *flowmodel.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var topo *topology.Topology
	var err error
	scale := 1
	if seed > 240 {
		scale = 4
	}
	capacity := unit.Bandwidth(scale*(300+rng.Intn(900))) * unit.Kbps
	if rng.Intn(3) == 0 {
		topo, err = topology.Waxman(12+rng.Intn(9), 0.3, 0.3, capacity, 40*unit.Millisecond, seed)
	} else {
		topo, err = topology.Ring(6+rng.Intn(6), 1+rng.Intn(5), capacity, seed)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{1, scale * (4 + rng.Intn(12))}
	cfg.BulkFlows = [2]int{1, scale * (3 + rng.Intn(6))}
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

// The rules a scored candidate's bundle can be attributed to, on an optimizer
// that skips nothing (the oracle).
const (
	ruleNone  = -1
	ruleLink  = 0
	ruleLevel = 1
)

// refutedBy says which rule would have left the candidate's bundle out of the
// collection it was just scored in: the link rule if its path crosses a link
// that already failed in the pass, else the level rule if its move size is
// what it was at the level below.
func refutedBy(o *Optimizer, c candidate) int {
	st := &o.aggs[c.agg]
	switch {
	case o.refutedAny && o.refuted(st.set.Path(c.from)):
		return ruleLink
	case o.prevFraction > 0 && moveSize(st.total, st.flows[c.from], o.prevFraction) == c.n:
		return ruleLevel
	}
	return ruleNone
}

// TestRefutedCandidatesNeverBeatTheBound checks the two proofs themselves,
// not their consequence: on the 120 even seeds of sparseInstance's random
// instances up to 240, and the 30 above whose aggregates are large enough for
// an escalation to change move sizes, the
// oracle optimizer enumerates and scores every bundle the rules would have
// skipped — those crossing a link that already failed in the pass, and those
// whose move size is what it was at the level below — and each of their
// candidates has the utility bits it scored the first time since the last
// commit, at most uInit + minGain: it could not have been selected, nor have
// moved bestU. Conversely a candidate neither rule skips is never a repeat.
// The same instances run with the rules on then commit the same solutions
// and score exactly the candidates the audit did not attribute to a rule,
// skipping at least the bundles whose candidates the audit saw (a skipped
// bundle may have had none to score).
func TestRefutedCandidatesNeverBeatTheBound(t *testing.T) {
	ctx := context.Background()
	type move struct{ agg, from, to, n int }
	const link, level = ruleLink, ruleLevel
	var audited, skipped, instances [2]int
	grown, escalatedCommits := 0, 0
	const instancesRun = 150 // the even seeds 2–300
	for seed := int64(2); seed <= 300; seed += 2 {
		opts := Options{Workers: 1}
		// scored holds every candidate scored since the last commit: the
		// allocation, and so what a move scores, is the same until the next.
		scored := map[move]float64{}
		oracleOpts := opts
		oracleOpts.Trace = func(s Snapshot) {
			clear(scored)
			if s.Escalation > 0 {
				escalatedCommits++
			}
		}
		var oracle *Optimizer
		WithoutRefutation(func() {
			var err error
			if oracle, err = New(sparseInstance(t, seed), oracleOpts); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		})
		// The proofs are about utilities: the oracle scores every candidate
		// exactly, where a bounded score may sit anywhere between a losing
		// candidate's utility and the bound it happened to be scored against.
		oracle.probe = exactScore
		var bundles, seen [2]int
		oracle.afterScoring = func(cands []candidate, bound float64) {
			last := [2]int{-1, -1} // a bundle's candidates are contiguous
			for _, c := range cands {
				rule := refutedBy(oracle, c)
				m := move{c.agg, c.from, c.to, c.n}
				first, repeat := scored[m]
				if rule == ruleNone {
					if repeat {
						t.Errorf("seed %d: move %+v is scored twice between commits and neither rule says so", seed, m)
					}
					if oracle.prevFraction > 0 {
						grown++
					}
					scored[m] = c.utility
					continue
				}
				seen[rule]++
				if !repeat {
					t.Errorf("seed %d: rule %d refutes move %+v, which nothing has scored since the last commit", seed, rule, m)
				} else if math.Float64bits(first) != math.Float64bits(c.utility) {
					t.Errorf("seed %d: refuted move %+v scored %v, then %v", seed, m, first, c.utility)
				}
				if c.utility > bound {
					t.Errorf("seed %d: refuted move %+v scores %v, above the bound %v by %g", seed, m, c.utility, bound, c.utility-bound)
				}
				if src := [2]int{c.agg, c.from}; src != last {
					last = src
					bundles[rule]++
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
		if got.Delta.Calls != want.Delta.Calls-int64(seen[link]+seen[level]) {
			t.Fatalf("seed %d: the rules scored %d candidates; the full enumeration scored %d, %d and %d of them refuted by link and by level",
				seed, got.Delta.Calls, want.Delta.Calls, seen[link], seen[level])
		}
		// The rules count bundles they skip, candidates or not; the audit
		// sees only those that had candidates to score.
		gotBundles := [2]int{got.RefutedBundles - got.RefutedByLevel, got.RefutedByLevel}
		for rule, n := range gotBundles {
			if n < bundles[rule] {
				t.Fatalf("seed %d: rule %d skipped %d bundles, the audit scored candidates of %d", seed, rule, n, bundles[rule])
			}
			audited[rule] += seen[rule]
			skipped[rule] += n
			if seen[rule] > 0 {
				instances[rule]++
			}
		}
	}
	t.Logf("by link: %d refuted candidates audited on %d of %d instances, %d bundles skipped; by level: %d on %d, %d skipped; %d candidates whose move size an escalation grew, %d escalated commits",
		audited[link], instances[link], instancesRun, skipped[link], audited[level], instances[level], skipped[level], grown, escalatedCommits)
	if 2*instances[link] < instancesRun || 2*instances[level] < instancesRun {
		t.Errorf("only %d and %d of %d instances ever refuted a bundle by link and by level; the property is barely exercised", instances[link], instances[level], instancesRun)
	}
	if grown == 0 || escalatedCommits == 0 {
		t.Errorf("%d candidates grew with an escalation and %d escalated moves were committed; the level rule's comparison is not exercised", grown, escalatedCommits)
	}
}

// TestSnapshotEscalation: a move committed after the move size was escalated
// is reported at the level it was committed at — Run used to reset the level
// before the only snapshot that read it, so every observer saw 0 — and the
// initial snapshot and every move of a run that may not escalate are level 0.
// The escalated move is one the level rule must keep collecting (its size
// grew with the escalation) among bundles it skips: the run commits the
// oracle's moves at the oracle's levels.
func TestSnapshotEscalation(t *testing.T) {
	// Seed 14 of the congested ring reaches a local optimum that only a
	// larger move size leaves: it commits one move two levels up.
	topo, mat := congestedInstance(t, 14)
	type commit struct {
		level   int
		utility float64
	}
	// unchanged and grew count, on an oracle run and by the fraction of the
	// level below, the bundles with candidates that no link of the pass had
	// refuted and whose move size was and was not what it had been there:
	// what the level rule skips and what it must still collect.
	unchanged, grew := map[float64]int{}, map[float64]int{}
	run := func(disable bool) (commits []commit, sol *Solution) {
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(model, Options{Workers: 1, DisableEscalation: disable,
			Trace: func(s Snapshot) { commits = append(commits, commit{s.Escalation, s.Result.NetworkUtility}) }})
		if err != nil {
			t.Fatal(err)
		}
		if !o.skipRefuted {
			o.afterScoring = func(cands []candidate, _ float64) {
				if o.prevFraction == 0 {
					return
				}
				last := [2]int{-1, -1}
				for _, c := range cands {
					src := [2]int{c.agg, c.from}
					if src == last {
						continue
					}
					last = src
					switch refutedBy(o, c) {
					case ruleLevel:
						unchanged[o.prevFraction]++
					case ruleNone:
						grew[o.prevFraction]++
					}
				}
			}
		}
		if sol, err = o.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return commits, sol
	}
	commits, sol := run(false)
	if commits[0].level != 0 {
		t.Errorf("initial snapshot reports escalation level %d", commits[0].level)
	}
	escalated, top := 0, 0
	for _, c := range commits {
		if c.level > 0 {
			escalated++
		}
		top = max(top, c.level)
	}
	if escalated == 0 {
		t.Fatalf("no snapshot reports an escalated move (%d escalations, %d steps)", sol.Escalations, sol.Steps)
	}
	if top > sol.Escalations {
		t.Errorf("a snapshot reports level %d, the run escalated %d times", top, sol.Escalations)
	}
	var full []commit
	var fsol *Solution
	WithoutRefutation(func() { full, fsol = run(false) })
	sameOutcome(t, "rule vs full enumeration", sol, fsol)
	if !reflect.DeepEqual(commits, full) {
		t.Errorf("commits (level, utility) differ:\n rule %v\n full %v", commits, full)
	}
	const f1, f2 = moveFraction, moveFraction * escalationFactor // the fractions below levels 1 and 2
	t.Logf("%d commits, the highest at level %d; bundles with candidates at levels 1, 2 of the full enumeration: %d, %d at an unchanged move size, %d, %d at a grown one; the rules skipped %d bundles by level and %d by link, scoring %d candidates of %d",
		sol.Steps, top, unchanged[f1], unchanged[f2], grew[f1], grew[f2],
		sol.RefutedByLevel, sol.RefutedBundles-sol.RefutedByLevel, sol.Delta.Calls, fsol.Delta.Calls)
	if skips := unchanged[f1] + unchanged[f2]; skips == 0 || skips > sol.RefutedByLevel || grew[f2] == 0 {
		t.Errorf("the level rule skipped %d bundles, the full enumeration scored candidates of %d at an unchanged move size and %d bundles grew at level 2; the escalated commit proves little",
			sol.RefutedByLevel, skips, grew[f2])
	}
	plain, psol := run(true)
	for i, c := range plain {
		if c.level != 0 {
			t.Errorf("DisableEscalation: snapshot %d reports level %d", i, c.level)
		}
	}
	if psol.Escalations != 0 || psol.Steps >= sol.Steps {
		t.Errorf("DisableEscalation: %d escalations, %d steps (escalating run: %d steps); the instance no longer needs escalation to progress",
			psol.Escalations, psol.Steps, sol.Steps)
	}
}

// TestStepEventCountsWhatTheRuleSkips: with telemetry on, the two
// refuted-bundle counters equal the Solution's link and level shares, the
// candidates counter what the run scored, and every core.step event says the
// level its move was committed at and the candidates and refuted bundles of
// its pass — whose sums cannot exceed the run's (failed passes emit no
// event). The passes after the last commit, which prove the local optimum
// and commit nothing, are one core.proof event and one
// fubar_core_proof_seconds observation; a run that stops for another reason
// has neither.
func TestStepEventCountsWhatTheRuleSkips(t *testing.T) {
	topo, mat := congestedInstance(t, 14)
	run := func(maxSteps int) (sol *Solution, tel *telemetry.Telemetry, levels []int, atLastCommit int) {
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		tel = telemetry.New()
		var o *Optimizer
		o, err = New(model, Options{Workers: 1, Telemetry: tel, MaxSteps: maxSteps, Trace: func(s Snapshot) {
			levels = append(levels, s.Escalation)
			atLastCommit = o.candidates
		}})
		if err != nil {
			t.Fatal(err)
		}
		if sol, err = o.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sol, tel, levels, atLastCommit
	}
	sol, tel, levels, atLastCommit := run(0)
	c := tel.Snapshot().Counters
	byLink, byLevel := c[`fubar_core_refuted_bundles_total{rule="link"}`], c[`fubar_core_refuted_bundles_total{rule="level"}`]
	if byLink+byLevel != int64(sol.RefutedBundles) || byLevel != int64(sol.RefutedByLevel) || byLink == 0 || byLevel == 0 {
		t.Errorf("fubar_core_refuted_bundles_total = %d by link, %d by level; the Solution says %d in all, %d by level (want equal, > 0)",
			byLink, byLevel, sol.RefutedBundles, sol.RefutedByLevel)
	}
	if got := c["fubar_core_candidates_collected_total"]; got != sol.Delta.Calls {
		t.Errorf("fubar_core_candidates_collected_total = %d, candidates scored = %d", got, sol.Delta.Calls)
	}
	step, candidates, refuted, proofs := 0, 0, 0, 0
	for _, ev := range traceEvents(tel) {
		switch ev.Name {
		case "core.step":
			step++
			if ev.Fields["step"] != step || ev.Fields["escalation"] != levels[step] {
				t.Errorf("core.step event %d: step %v at level %v, the snapshot said level %d", step, ev.Fields["step"], ev.Fields["escalation"], levels[step])
			}
			if ev.Fields["refuted_level"].(int) > ev.Fields["refuted"].(int) {
				t.Errorf("core.step event %d: %v bundles refuted by level of %v in all", step, ev.Fields["refuted_level"], ev.Fields["refuted"])
			}
			candidates += ev.Fields["candidates"].(int)
			refuted += ev.Fields["refuted"].(int)
		case "core.proof":
			proofs++
			// A proof is every level's pass, and ends at the first level
			// that cannot escalate: this run's last move is a base-level one.
			if step != sol.Steps || ev.Fields["passes"] != 3 || int64(ev.Fields["candidates"].(int)) != sol.Delta.Calls-int64(atLastCommit) ||
				ev.Fields["refuted_link"].(int) == 0 || ev.Fields["refuted_level"].(int) == 0 {
				t.Errorf("core.proof after %d of %d steps: %v; the run scored %d candidates after its last commit", step, sol.Steps, ev.Fields, sol.Delta.Calls-int64(atLastCommit))
			}
			candidates += ev.Fields["candidates"].(int)
			refuted += ev.Fields["refuted_link"].(int) + ev.Fields["refuted_level"].(int)
		}
	}
	if step != sol.Steps {
		t.Fatalf("%d core.step events for %d steps", step, sol.Steps)
	}
	if candidates == 0 || int64(candidates) > sol.Delta.Calls || refuted > sol.RefutedBundles {
		t.Errorf("events sum to %d candidates and %d refuted bundles; the run: %d and %d", candidates, refuted, sol.Delta.Calls, sol.RefutedBundles)
	}
	if n := tel.Snapshot().Histograms["fubar_core_proof_seconds"].Count; sol.Stop != StopLocalOptimum || proofs != 1 || n != 1 {
		t.Errorf("stop %v: %d core.proof events, %d fubar_core_proof_seconds observations, want one of each", sol.Stop, proofs, n)
	}
	sol, tel, _, _ = run(1)
	for _, ev := range traceEvents(tel) {
		if ev.Name == "core.proof" {
			t.Errorf("stop %v: a core.proof event %v", sol.Stop, ev.Fields)
		}
	}
	if n := tel.Snapshot().Histograms["fubar_core_proof_seconds"].Count; sol.Stop != StopMaxSteps || n != 0 {
		t.Errorf("stop %v: %d fubar_core_proof_seconds observations", sol.Stop, n)
	}
}

// traceEvents is every event tel's tracer holds, oldest first.
func traceEvents(tel *telemetry.Telemetry) []telemetry.Event {
	recent, _, cancel := tel.Tracer.Subscribe()
	cancel()
	return recent
}
