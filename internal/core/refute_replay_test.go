package core_test

// The replay- and preset-level differential for the failed-step rule. It
// lives in core's external test package because it needs both the
// unexported oracle switch (export_test.go) and internal/scenario, which
// imports core.

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

// TestRefutationMatchesFullEnumerationReplay: with the rule on and with the
// oracle enumerating every bundle, a replay is the same replay — every
// EpochResult bar Elapsed, and the install sequence — on the SRLG ring open
// and closed loop (3 replicas) over crisis and link-failure soak timelines,
// warm and cold, at Workers {1, 4} × DeltaEval {Auto, Off}, and on
// benchmark/'s HE-31 crisis timelines.
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
			for _, mode := range []core.DeltaMode{core.DeltaAuto, core.DeltaOff} {
				if lg.topo == he && mode != core.DeltaAuto {
					continue // full fills on HE cost seconds under -race; the ring legs cover DeltaOff
				}
				t.Run(fmt.Sprintf("%s/workers-%d/delta-%v", lg.name, workers, mode), func(t *testing.T) {
					coreOpts := core.Options{Workers: workers, DeltaEval: mode}
					replay := func() *scenario.Result {
						opts := scenario.Options{Core: coreOpts, Replicas: 3, ColdStart: lg.cold}
						var cp *scenario.ControlPlane
						if lg.closed {
							var err error
							if cp, err = scenario.NewControlPlane(lg.topo, lg.mat, opts); err != nil {
								t.Fatal(err)
							}
							defer cp.Close()
						}
						res, err := scenario.Run(lg.topo, lg.sc, opts, lg.closed,
							scenario.Stream(context.Background(), newOptimizer(t, lg.topo, lg.mat, opts.Core), cp, lg.topo, lg.mat, lg.sc, opts))
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					rule := replay()
					var full *scenario.Result
					core.WithoutRefutation(func() { full = replay() })
					if !rule.Equivalent(full) {
						for i := range rule.Epochs {
							a, b := rule.Epochs[i], full.Epochs[i]
							a.Elapsed, b.Elapsed = 0, 0
							if !reflect.DeepEqual(a, b) {
								t.Fatalf("epoch %d differs:\n rule %+v\n full %+v", i, a, b)
							}
						}
						t.Fatalf("install sequences differ:\n rule %+v\n full %+v", rule.Installs, full.Installs)
					}
					steps := 0
					for _, e := range rule.Epochs {
						steps += e.Steps
					}
					if steps == 0 {
						t.Error("replay committed no move; the comparison proves little")
					}
				})
			}
		}
	}
}

// TestRefutationMatchesFullEnumerationCold: cold optimizations of the
// scale-xs and scale-s presets commit the same solution with the rule on
// and under the oracle, at Workers {1, 4} × DeltaEval {Auto, Off}; the rule
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
		for _, mode := range []core.DeltaMode{core.DeltaAuto, core.DeltaOff} {
			if preset == "scale-s" && mode == core.DeltaOff {
				continue // ~1500 aggregates of full fills per candidate: scale-xs covers DeltaOff
			}
			var atOne *core.Solution
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/workers-%d/delta-%v", preset, workers, mode), func(t *testing.T) {
					opts := core.Options{Workers: workers, DeltaEval: mode}
					rule := run(t, opts)
					var full *core.Solution
					core.WithoutRefutation(func() { full = run(t, opts) })
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
					if preset == "scale-xs" && mode == core.DeltaAuto && rule.RefutedBundles == 0 {
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

// TestOptionsFieldSet pins the exported field sets of core.Options and
// scenario.Options: every field is a configuration the tests and the
// benchmark must cover, so adding one is an edit to this list too.
func TestOptionsFieldSet(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(core.Options{}), []string{
			"Policy", "MaxPathsPerAggregate", "MaxSteps", "Workers", "AltMode",
			"DeltaEval", "DisableEscalation", "Trace", "Telemetry",
		}},
		{reflect.TypeOf(scenario.Options{}), []string{
			"Core", "ColdStart", "Budget", "DemandJitter", "Replicas", "RuleLease",
			"LeasePolicy", "Logger",
		}},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(tc.typ) {
			got = append(got, f.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v fields:\n got  %v\n want %v", tc.typ, got, tc.want)
		}
	}
}
