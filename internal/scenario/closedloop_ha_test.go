package scenario

import (
	"context"
	"testing"

	"fubar/internal/core"
)

// TestClosedLoopHAKillStormDeterminism is the HA acceptance run: the
// canned controller-kill storm over a 3-replica control plane must
// yield a bit-identical epoch table (including per-epoch Failovers and
// ResyncFlowMods) at Workers ∈ {1, 4} (internal/core's
// TestClosedLoopHAKillStormOracle holds it to the full-evaluation
// oracle), complete every epoch with the fabric ledger reconciled to ±0
// (settle() and install() fail the replay otherwise), and actually
// exercise failover: every seat is killed once, so every switch is
// orphaned at some point and survivors must resync the cached rule
// tables.
func TestClosedLoopHAKillStormDeterminism(t *testing.T) {
	topo, mat := ringInstance(t, 13)
	sc := ControllerKillStorm(29, 6, 3)
	var results []*Result
	for _, workers := range []int{1, 4} {
		res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
			Core:     core.Options{Workers: workers},
			Replicas: 3,
		})
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		results = append(results, res)
	}
	if err := results[0].Equivalent(results[1]); err != nil {
		t.Fatalf("Workers 1 vs 4: %v", err)
	}

	res := results[0]
	var failovers, resyncs int
	for _, e := range res.Epochs {
		failovers += e.Failovers
		resyncs += e.ResyncFlowMods
		// Zero black-holed epochs: every epoch still forwarded traffic,
		// published an allocation and reconciled its wire ledger.
		if err := e.Check(); err != nil {
			t.Error(err)
		}
	}
	// The storm kills seats 0, 1 and 2 once each (epochs 1, 3, 5), and
	// never the last live replica, so all three elections must happen.
	if failovers != 3 {
		t.Errorf("total failovers = %d, want 3 (one per seat killed)", failovers)
	}
	// Every switch is owned by one of the three seats, each seat dies
	// once, and by then every switch holds an installed table — some
	// orphan must have had its table resynced by a survivor.
	if resyncs == 0 {
		t.Error("kill storm triggered no rule-table resyncs")
	}
}

// TestClosedLoopHANoopOnSingleReplica replays the same kill storm over
// the classic single-controller shape: every ControllerFail is a
// deterministic no-op (a lone replica refuses to die, higher seats
// don't exist), so the replay completes failover-free and stays
// deterministic. This is the degenerate leg the HA bench compares
// against.
func TestClosedLoopHANoopOnSingleReplica(t *testing.T) {
	topo, mat := ringInstance(t, 13)
	sc := ControllerKillStorm(29, 4, 3)
	a, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core: core.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core: core.Options{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Equivalent(b); err != nil {
		t.Fatalf("single-replica kill storm, Workers 1 vs 4: %v", err)
	}
	for _, e := range a.Epochs {
		if e.Failovers != 0 || e.ResyncFlowMods != 0 {
			t.Errorf("epoch %d: Failovers=%d ResyncFlowMods=%d on a single-replica plane, want 0/0",
				e.Epoch, e.Failovers, e.ResyncFlowMods)
		}
	}
}
