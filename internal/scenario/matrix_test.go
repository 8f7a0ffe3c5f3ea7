package scenario

import (
	"context"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// matrixInstance is the scenario-matrix instance: a small ring with two
// shared-risk groups declared, so every canned generator — including the
// SRLG-driven composites — has real events to play.
func matrixInstance(t *testing.T) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	st, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		t.Fatalf("WithSRLGs: %v", err)
	}
	cfg := traffic.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(st, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return st, mat
}

// matrixCell is one policy/budget configuration of the scenario matrix.
type matrixCell struct {
	name     string
	cold     bool
	delta    core.DeltaMode
	replicas int
	budget   time.Duration
}

// matrixCells enumerates the policy dimension every generator is run
// against: warm/cold start, incremental/full candidate evaluation,
// 1-vs-3-replica control plane, and a wall-clock budget cell. Budgeted
// cells are machine-dependent by construction (see core.Options.Workers)
// and are checked for invariants only, never determinism.
func matrixCells() []matrixCell {
	return []matrixCell{
		{name: "warm-delta-r1", delta: core.DeltaAuto, replicas: 1},
		{name: "cold-delta-r1", cold: true, delta: core.DeltaAuto, replicas: 1},
		{name: "warm-full-r1", delta: core.DeltaOff, replicas: 1},
		{name: "warm-delta-r3", delta: core.DeltaAuto, replicas: 3},
		{name: "warm-delta-r1-budget", delta: core.DeltaAuto, replicas: 1, budget: 250 * time.Millisecond},
	}
}

// checkMatrixInvariants asserts the per-epoch closed-loop contract every
// matrix cell must hold regardless of policy: the wire ledger reconciles
// (FlowMod messages written == fabric acks received, per epoch and per
// install), and no epoch black-holes traffic — the installed allocation
// always delivers positive ground-truth utility over a live network.
func checkMatrixInvariants(t *testing.T, label string, res *Result) {
	t.Helper()
	if len(res.Epochs) == 0 {
		t.Fatalf("%s: no epochs", label)
	}
	for _, e := range res.Epochs {
		if e.WireFlowMods != e.InstallAcks {
			t.Errorf("%s epoch %d: %d wire FlowMods vs %d acks", label, e.Epoch, e.WireFlowMods, e.InstallAcks)
		}
		if e.TrueUtility <= 0 {
			t.Errorf("%s epoch %d: ground-truth utility %v (black hole?)", label, e.Epoch, e.TrueUtility)
		}
		if e.Utility <= 0 || e.StaleUtility <= 0 {
			t.Errorf("%s epoch %d: utility %v stale %v", label, e.Epoch, e.Utility, e.StaleUtility)
		}
		if e.Aggregates < 1 || e.Flows < 1 {
			t.Errorf("%s epoch %d: %d aggregates / %d flows", label, e.Epoch, e.Aggregates, e.Flows)
		}
	}
	for _, in := range res.Installs {
		if in.FlowMods != in.Acks {
			t.Errorf("%s install %s@%d: %d FlowMods vs %d acks", label, in.Phase, in.Epoch, in.FlowMods, in.Acks)
		}
	}
}

// TestScenarioMatrix enumerates every canned generator (composites
// included) against the policy/budget cells, closed loop end to end:
// each deterministic cell must replay bit-identically at Workers 1 and
// 4, and every cell — budgeted ones included — must reconcile its wire
// ledger and never black-hole. This is the kube-ovn-style feature
// matrix for the soak layer: generators × {warm/cold, delta on/off,
// replicas 1/3, budget} × worker counts.
func TestScenarioMatrix(t *testing.T) {
	topo, mat := matrixInstance(t)
	const epochs = 5
	ctx := context.Background()
	for _, name := range Names() {
		sc, err := ByName(name, 11, epochs)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, c := range matrixCells() {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				workerCounts := []int{1, 4}
				if c.budget > 0 {
					// Budget cells are machine-dependent: one run,
					// invariants only.
					workerCounts = []int{4}
				}
				var ref *Result
				for _, workers := range workerCounts {
					opts := Options{
						Core:      core.Options{Workers: workers, DeltaEval: c.delta},
						ColdStart: c.cold,
						Replicas:  c.replicas,
						Budget:    c.budget,
					}
					res, err := runClosedLoop(ctx, topo, mat, sc, opts)
					if err != nil {
						t.Fatalf("Workers=%d: %v", workers, err)
					}
					checkMatrixInvariants(t, c.name, res)
					if c.budget > 0 {
						continue
					}
					if ref == nil {
						ref = res
					} else if !ref.Equivalent(res) {
						t.Fatalf("Workers=%d diverged from Workers=%d:\n a=%+v\n b=%+v",
							workers, workerCounts[0], ref.Epochs, res.Epochs)
					}
				}
			})
		}
	}
}

// TestEpochWarmBaseBitIdentity pins the epoch-warm delta-Base replay
// against the oracle: a replay whose epochs recycle one persistent Base
// (the default) must produce the bit-identical epoch table to one that
// scores every candidate with a full evaluation and keeps no base
// (core.DeltaOff) — plain and closed-loop alike.
func TestEpochWarmBaseBitIdentity(t *testing.T) {
	topo, mat := matrixInstance(t)
	ctx := context.Background()
	for _, name := range []string{"diurnal", "crisis", "storm"} {
		sc, err := ByName(name, 23, 6)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		t.Run("plain/"+name, func(t *testing.T) {
			warm, err := run(ctx, topo, mat, sc, Options{Core: core.Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			full, err := run(ctx, topo, mat, sc, Options{Core: core.Options{Workers: 2, DeltaEval: core.DeltaOff}})
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Equivalent(full) {
				t.Fatalf("epoch-warm base diverged from DeltaOff:\n warm=%+v\n full=%+v", warm.Epochs, full.Epochs)
			}
		})
		t.Run("closedloop/"+name, func(t *testing.T) {
			warm, err := runClosedLoop(ctx, topo, mat, sc, Options{Core: core.Options{Workers: 2}})
			if err != nil {
				t.Fatal(err)
			}
			full, err := runClosedLoop(ctx, topo, mat, sc, Options{Core: core.Options{Workers: 2, DeltaEval: core.DeltaOff}})
			if err != nil {
				t.Fatal(err)
			}
			if !warm.Equivalent(full) {
				t.Fatalf("epoch-warm base diverged from DeltaOff:\n warm=%+v\n full=%+v", warm.Epochs, full.Epochs)
			}
		})
	}
}
