package scenario

import (
	"context"
	"testing"

	"fubar/internal/core"
)

// TestClosedLoopHAKillStormDeterminism is the HA acceptance run: the
// canned controller-kill storm over a 3-replica control plane must
// yield a bit-identical epoch table (including per-epoch Failovers and
// ResyncFlowMods) at Workers ∈ {1, 4} and DeltaEval on/off, complete
// every epoch with the fabric ledger reconciled to ±0 (settle() and
// install() fail the replay otherwise), and actually exercise failover:
// every seat is killed once, so every switch is orphaned at some point
// and survivors must resync the cached rule tables.
func TestClosedLoopHAKillStormDeterminism(t *testing.T) {
	topo, mat := ringInstance(t, 13)
	sc := ControllerKillStorm(29, 6, 3)
	var results []*Result
	for _, cfg := range []struct {
		workers int
		delta   core.DeltaMode
	}{
		{1, core.DeltaAuto},
		{4, core.DeltaAuto},
		{1, core.DeltaOff},
		{4, core.DeltaOff},
	} {
		res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
			Core:     core.Options{Workers: cfg.workers, DeltaEval: cfg.delta},
			Replicas: 3,
		})
		if err != nil {
			t.Fatalf("Workers=%d DeltaEval=%v: %v", cfg.workers, cfg.delta, err)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		if !results[0].Equivalent(res) {
			t.Fatalf("config %d diverged from Workers=1/DeltaAuto:\n a=%+v\n b=%+v",
				i+1, results[0].Epochs, res.Epochs)
		}
	}

	res := results[0]
	var failovers, resyncs int
	for _, e := range res.Epochs {
		failovers += e.Failovers
		resyncs += e.ResyncFlowMods
		// Zero black-holed epochs: every epoch still forwarded traffic
		// and published an allocation.
		if e.TrueUtility <= 0 {
			t.Errorf("epoch %d: true utility %v after failover — traffic black-holed", e.Epoch, e.TrueUtility)
		}
		if e.WireFlowMods != e.InstallAcks {
			t.Errorf("epoch %d: %d wire FlowMods but %d acks", e.Epoch, e.WireFlowMods, e.InstallAcks)
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
	if !a.Equivalent(b) {
		t.Fatal("single-replica kill-storm replay diverged across worker counts")
	}
	for _, e := range a.Epochs {
		if e.Failovers != 0 || e.ResyncFlowMods != 0 {
			t.Errorf("epoch %d: Failovers=%d ResyncFlowMods=%d on a single-replica plane, want 0/0",
				e.Epoch, e.Failovers, e.ResyncFlowMods)
		}
	}
}
