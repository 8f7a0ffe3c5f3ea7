package core_test

// The replay-level differentials for incremental scoring: a timeline
// replayed under the full-evaluation oracle and in production is the same
// replay — every EpochResult bar Elapsed, and the install sequence.
// internal/scenario keeps the production legs of the same gates
// (TestScenarioMatrix, TestClosedLoopDeterminism,
// TestClosedLoopHAKillStorm,
// TestKeptOptimizerMatchesPerEpochRebuild); only this package can select
// the oracle (export_test.go).

import (
	"fmt"
	"testing"

	"fubar/internal/core"
	"fubar/internal/scenario"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// requireOracle replays sc under the full-evaluation oracle at each of
// oracleWorkers and in production at each of workers, and requires every
// production replay to be every oracle replay.
func requireOracle(t *testing.T, topo *topology.Topology, mat *traffic.Matrix, sc scenario.Scenario, opts scenario.Options, closed bool, oracleWorkers, workers []int) {
	t.Helper()
	var oracles []*scenario.Result
	core.WithFullEvaluation(func() {
		for _, w := range oracleWorkers {
			opts.Core.Workers = w
			oracles = append(oracles, replay(t, topo, mat, sc, opts, closed))
		}
	})
	for _, w := range workers {
		opts.Core.Workers = w
		got := replay(t, topo, mat, sc, opts, closed)
		for i, want := range oracles {
			if err := got.Equivalent(want); err != nil {
				t.Fatalf("workers-%d vs full evaluation at workers-%d: %v", w, oracleWorkers[i], err)
			}
		}
	}
}

// TestScenarioMatrixOracle is TestScenarioMatrix's full-evaluation cell:
// every canned generator, warm, closed loop over one replica, replayed
// under the oracle and in production.
func TestScenarioMatrixOracle(t *testing.T) {
	topo, mat := srlgRing(t)
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name, 11, 5)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			requireOracle(t, topo, mat, sc, scenario.Options{Replicas: 1}, true, []int{1}, []int{1})
		})
	}
}

// TestEpochWarmBaseBitIdentity pins the epoch-warm delta-Base replay
// against the oracle: a replay whose epochs recycle one persistent Base
// must produce the bit-identical epoch table to one that scores every
// candidate with a full evaluation and keeps no base — plain and
// closed-loop alike.
func TestEpochWarmBaseBitIdentity(t *testing.T) {
	topo, mat := srlgRing(t)
	for _, name := range []string{"diurnal", "crisis", "storm"} {
		sc, err := scenario.ByName(name, 23, 6)
		if err != nil {
			t.Fatal(err)
		}
		for _, closed := range []bool{false, true} {
			t.Run(map[bool]string{false: "plain", true: "closedloop"}[closed]+"/"+name, func(t *testing.T) {
				requireOracle(t, topo, mat, sc, scenario.Options{}, closed, []int{2}, []int{2})
			})
		}
	}
}

// TestClosedLoopDeterminismOracle is TestClosedLoopDeterminism's
// full-evaluation leg: the mixed demand-and-topology timeline on the
// 8-node ring, closed loop, yields production's epoch table, counted
// FlowMods and install sequence under the oracle.
func TestClosedLoopDeterminismOracle(t *testing.T) {
	topo, mat, _ := core.PropInstance(t, 13)
	sc := scenario.Scenario{
		Name: "mixed", Seed: 21, Epochs: 4,
		Events: []scenario.Event{
			{Epoch: 0, Kind: scenario.DemandScale, Factor: 0.9},
			{Epoch: 1, Kind: scenario.LinkFail, Link: 0},
			{Epoch: 1, Kind: scenario.DemandChurn, Factor: 0.2, Fraction: 0.4},
			{Epoch: 2, Kind: scenario.DemandScale, Factor: 1.2},
			{Epoch: 3, Kind: scenario.LinkRecover, Link: 0},
		},
	}
	requireOracle(t, topo, mat, sc, scenario.Options{}, true, []int{1}, []int{1})
}

// TestClosedLoopHAKillStormOracle is TestClosedLoopHAKillStorm's
// full-evaluation leg: the controller-kill storm over three replicas
// yields production's epoch table, Failovers and ResyncFlowMods included,
// under the oracle.
func TestClosedLoopHAKillStormOracle(t *testing.T) {
	topo, mat, _ := core.PropInstance(t, 13)
	requireOracle(t, topo, mat, scenario.ControllerKillStorm(29, 6, 3), scenario.Options{Replicas: 3}, true, []int{1}, []int{1})
}

// TestKeptOptimizerOracle is TestKeptOptimizerMatchesPerEpochRebuild's
// full-evaluation legs: each ring timeline that grows and shrinks the
// matrix, fails and drains links and shared-risk groups or kills controller
// seats, open loop and closed, replayed on the optimizer and storage the
// replay keeps, is the same replay under the oracle at Workers 1 and in
// production at each worker count.
func TestKeptOptimizerOracle(t *testing.T) {
	ring, ringMat := srlgRing(t)
	crisis, err := scenario.ByName("crisis", 23, 10)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := scenario.ByName("diurnal", 23, 10)
	if err != nil {
		t.Fatal(err)
	}
	timelines := []struct {
		name string
		sc   scenario.Scenario
	}{
		{"crisis", crisis},
		{"diurnal", diurnal},
		{"soak-link-failures", scenario.Soak(9, 24, 2)},
		{"kill-storm", scenario.ControllerKillStorm(29, 6, 3)},
	}
	for _, closed := range []bool{false, true} {
		opts := scenario.Options{}
		if closed {
			opts.Replicas = 3
		}
		for _, tl := range timelines {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers-%d", map[bool]string{false: "open", true: "closed"}[closed], tl.name, workers), func(t *testing.T) {
					requireOracle(t, ring, ringMat, tl.sc, opts, closed, []int{1}, []int{workers})
				})
			}
		}
	}
}
