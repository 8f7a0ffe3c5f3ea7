package core_test

// The replay- and preset-level differentials for the failed-step rule and
// for incremental scoring. They live in core's external test package
// because they need both the unexported oracle switches (export_test.go)
// and internal/scenario, which imports core.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/scenario"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// srlgRing is the scenario tests' 6-node ring with two shared-risk groups —
// the closed-loop soak workload's topology.
func srlgRing(t *testing.T) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err = topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// evalName names a leg by how its optimizers score candidates.
var evalName = map[bool]string{false: "incremental", true: "full"}

// replay runs sc over topo and mat on an optimizer of its own, open loop or
// closed over a control plane of its own, and collects its Result.
func replay(t *testing.T, topo *topology.Topology, mat *traffic.Matrix, sc scenario.Scenario, opts scenario.Options, closed bool) *scenario.Result {
	t.Helper()
	var cp *scenario.ControlPlane
	if closed {
		var err error
		if cp, err = scenario.NewControlPlane(topo, mat, opts); err != nil {
			t.Fatal(err)
		}
		defer cp.Close()
	}
	res, err := scenario.Run(topo, sc, opts, closed,
		new(scenario.Replayer).Stream(context.Background(), newOptimizer(t, topo, mat, opts.Core), cp, topo, mat, sc, opts))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRefutationMatchesFullEnumerationReplay: with the rule on and with the
// oracle enumerating every bundle, a replay is the same replay — every
// EpochResult bar Elapsed, and the install sequence — on the SRLG ring open
// and closed loop (3 replicas) over crisis and link-failure soak timelines,
// warm and cold, at Workers {1, 4}, scoring incrementally and under the
// full-evaluation oracle, and on benchmark/'s HE-31 crisis timelines.
func TestRefutationMatchesFullEnumerationReplay(t *testing.T) {
	ring, ringMat := srlgRing(t)
	he, heMat, err := scenario.HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		name         string
		topo         *topology.Topology
		mat          *traffic.Matrix
		sc           scenario.Scenario
		closed, cold bool
	}
	var legs []leg
	for _, closed := range []bool{false, true} {
		loop := map[bool]string{false: "open", true: "closed"}[closed]
		legs = append(legs,
			leg{loop + "/crisis", ring, ringMat, scenario.Crisis(23, 10, 1.3, 3), closed, false},
			leg{loop + "/soak-link-failures", ring, ringMat, scenario.Soak(9, 24, 2), closed, false},
			leg{loop + "/crisis-cold", ring, ringMat, scenario.Crisis(24, 8, 1.3, 3), closed, true},
		)
	}
	// benchmark/'s replay-he-crisis timeline, and its onset cold (HE replays
	// cost seconds under -race: one timeline each).
	legs = append(legs,
		leg{"open/he-crisis", he, heMat, scenario.Crisis(42, 8, 1.3, 3), false, false},
		leg{"open/he-crisis-cold", he, heMat, scenario.Crisis(43, 3, 1.3, 3), false, true})
	for _, lg := range legs {
		for _, workers := range []int{1, 4} {
			for _, fullEval := range []bool{false, true} {
				if lg.topo == he && fullEval {
					continue // full fills on HE cost seconds under -race; the ring legs cover the oracle
				}
				t.Run(fmt.Sprintf("%s/workers-%d/%s", lg.name, workers, evalName[fullEval]), func(t *testing.T) {
					opts := scenario.Options{Core: core.Options{Workers: workers}, Replicas: 3, ColdStart: lg.cold}
					var rule, oracle *scenario.Result
					core.Evaluating(fullEval, func() {
						rule = replay(t, lg.topo, lg.mat, lg.sc, opts, lg.closed)
						core.WithoutRefutation(func() { oracle = replay(t, lg.topo, lg.mat, lg.sc, opts, lg.closed) })
					})
					if err := rule.Equivalent(oracle); err != nil {
						t.Fatalf("rule vs full enumeration: %v", err)
					}
					if rule.TotalSteps() == 0 {
						t.Error("replay committed no move; the comparison proves little")
					}
				})
			}
		}
	}
}

// TestRefutationMatchesFullEnumerationCold: cold optimizations of the
// scale-xs and scale-s presets commit the same solution with the rule on
// and under the oracle, at Workers {1, 4}, scoring incrementally and under
// the full-evaluation oracle; the rule
// scores no more candidates than the full enumeration — the same ones
// exactly when it skipped nothing — and reports the same RefutedBundles and
// Delta at either worker count.
func TestRefutationMatchesFullEnumerationCold(t *testing.T) {
	for _, preset := range []string{"scale-xs", "scale-s"} {
		topo, mat, err := scenario.ScaleInstance(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		run := func(t *testing.T, opts core.Options) *core.Solution {
			t.Helper()
			model, err := flowmodel.New(topo, mat)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := core.Run(context.Background(), model, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sol
		}
		for _, fullEval := range []bool{false, true} {
			if preset == "scale-s" && fullEval {
				continue // ~1500 aggregates of full fills per candidate: scale-xs covers the oracle
			}
			var atOne *core.Solution
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/workers-%d/%s", preset, workers, evalName[fullEval]), func(t *testing.T) {
					opts := core.Options{Workers: workers}
					var rule, full *core.Solution
					core.Evaluating(fullEval, func() {
						rule = run(t, opts)
						core.WithoutRefutation(func() { full = run(t, opts) })
					})
					if rule.Utility != full.Utility || rule.Steps != full.Steps || rule.Escalations != full.Escalations ||
						rule.Stop != full.Stop || !reflect.DeepEqual(rule.Bundles, full.Bundles) || !reflect.DeepEqual(rule.Result, full.Result) {
						t.Fatalf("rule: utility %v, %d steps, %d escalations, %v; full enumeration: %v, %d, %d, %v",
							rule.Utility, rule.Steps, rule.Escalations, rule.Stop, full.Utility, full.Steps, full.Escalations, full.Stop)
					}
					if full.RefutedBundles != 0 {
						t.Errorf("the oracle skipped %d bundles", full.RefutedBundles)
					}
					// scale-s seed 1 decongests without ever failing a step:
					// nothing to skip, and then nothing may differ.
					if rule.Delta.Calls > full.Delta.Calls || (rule.RefutedBundles == 0 && rule.Delta != full.Delta) {
						t.Errorf("the rule skipped %d bundles and scored %d candidates, the full enumeration %d",
							rule.RefutedBundles, rule.Delta.Calls, full.Delta.Calls)
					}
					if preset == "scale-xs" && !fullEval && rule.RefutedBundles == 0 {
						t.Error("no bundle was refuted on scale-xs; the comparison proves little")
					}
					if atOne == nil {
						atOne = rule
					} else if rule.RefutedBundles != atOne.RefutedBundles || rule.Delta != atOne.Delta {
						t.Errorf("workers %d: RefutedBundles %d, Delta %+v; workers 1: %d, %+v",
							workers, rule.RefutedBundles, rule.Delta, atOne.RefutedBundles, atOne.Delta)
					}
				})
			}
		}
	}
}
