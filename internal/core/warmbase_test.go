package core

import (
	"context"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// mildInstance builds a lightly loaded ring (the scenario matrix's
// shape): a handful of steps, every one scored incrementally, the run
// finishing with the base live and the final result materialized from it.
func mildInstance(t *testing.T) *flowmodel.Model {
	t.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	return m
}

// TestKeepFinalBaseExports pins the Base export contract: a run asked to
// keep its base hands back both halves of the double-buffer pair as
// distinct objects, the live half capturing the final allocation
// exactly (FinalBase.NetworkUtility() == Solution.Utility), and the
// optimizer forgets them — a rerun on the same optimizer must build a
// fresh pair rather than clobber the exported one.
func TestKeepFinalBaseExports(t *testing.T) {
	m := mildInstance(t)
	o, err := New(m, Options{Workers: 1, KeepFinalBase: true})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.FinalBase == nil || sol.FinalBaseSpare == nil {
		t.Fatalf("base pair not exported: (%p, %p)", sol.FinalBase, sol.FinalBaseSpare)
	}
	if sol.FinalBase == sol.FinalBaseSpare {
		t.Fatal("exported pair collapsed to one object")
	}
	if sol.Base.FinalFromBase != 1 {
		t.Fatalf("mild instance did not end base-live: %+v", sol.Base)
	}
	if got := sol.FinalBase.NetworkUtility(); got != sol.Utility {
		t.Fatalf("FinalBase utility %v != solution utility %v", got, sol.Utility)
	}
	again, err := o.RunWarm(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.FinalBase == sol.FinalBase || again.FinalBaseSpare == sol.FinalBaseSpare {
		t.Fatal("rerun reused an exported base — caller does not own it outright")
	}
	if got := again.FinalBase.NetworkUtility(); got != again.Utility {
		t.Fatalf("rerun FinalBase utility %v != solution utility %v", got, again.Utility)
	}
}

// TestWarmBaseAdoptionBitIdentical proves recycled Base storage is pure
// storage: a run seeded with another instance's exported (and now stale)
// pair must produce the bit-identical solution to a run that allocates
// fresh, and must hand the very same pair of objects back out.
func TestWarmBaseAdoptionBitIdentical(t *testing.T) {
	// Donor run on a different seed, so the donated contents are wrong
	// for the instance under test in every dimension.
	_, _, donor := propInstance(t, 7)
	donorSol, err := Run(context.Background(), donor, Options{Workers: 1, KeepFinalBase: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m1 := propInstance(t, 3)
	fresh, err := Run(context.Background(), m1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m2 := propInstance(t, 3)
	warm, err := Run(context.Background(), m2, Options{
		Workers:       1,
		KeepFinalBase: true,
		WarmBase:      donorSol.FinalBase,
		WarmBaseSpare: donorSol.FinalBaseSpare,
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Utility != fresh.Utility || warm.Steps != fresh.Steps ||
		!reflect.DeepEqual(warm.Bundles, fresh.Bundles) {
		t.Fatalf("warm-storage run diverged from fresh run: utility %v vs %v, steps %d vs %d",
			warm.Utility, fresh.Utility, warm.Steps, fresh.Steps)
	}
	recycled := (warm.FinalBase == donorSol.FinalBase && warm.FinalBaseSpare == donorSol.FinalBaseSpare) ||
		(warm.FinalBase == donorSol.FinalBaseSpare && warm.FinalBaseSpare == donorSol.FinalBase)
	if !recycled {
		t.Fatalf("adopted pair not handed back: donated (%p,%p), got (%p,%p)",
			donorSol.FinalBase, donorSol.FinalBaseSpare, warm.FinalBase, warm.FinalBaseSpare)
	}
}

// TestEpochWarmSingleCapture pins the evaluation-count win of the
// epoch-warm design: a default delta run's initial evaluation IS the
// base capture, so the whole run pays exactly one EvaluateBase-style
// capture (no per-step re-capture). Every step is scored against that
// base and every commit folded into it, so it is live at the end and the
// final result is materialized from it — at most once.
func TestEpochWarmSingleCapture(t *testing.T) {
	fromBase := 0
	for seed := int64(1); seed <= 8; seed++ {
		_, _, m := propInstance(t, seed)
		sol, err := Run(context.Background(), m, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := sol.Base
		if b.Captures != 1 {
			t.Errorf("seed %d: %d captures, want exactly 1 (initial eval doubles as capture): %+v",
				seed, b.Captures, b)
		}
		if b.FinalFromBase < 0 || b.FinalFromBase > 1 {
			t.Errorf("seed %d: impossible FinalFromBase count: %+v", seed, b)
		}
		fromBase += b.FinalFromBase
	}
	if fromBase == 0 {
		t.Error("final materialization from the live base never engaged on any seed")
	}
	// The mild instance keeps the delta path all the way: exactly one
	// capture and a base-materialized final, i.e. a single full
	// evaluation for the entire run.
	sol, err := Run(context.Background(), mildInstance(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Base.Captures != 1 || sol.Base.FinalFromBase != 1 {
		t.Fatalf("mild instance paid more than one full evaluation: %+v", sol.Base)
	}
}

// TestDisableBaseReuseKeepsNoFinalBase checks KeepFinalBase is inert
// when the run never builds a persistent base.
func TestDisableBaseReuseKeepsNoFinalBase(t *testing.T) {
	_, _, m := propInstance(t, 4)
	sol, err := Run(context.Background(), m, Options{Workers: 1, KeepFinalBase: true, DisableBaseReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.FinalBase != nil || sol.FinalBaseSpare != nil {
		t.Fatalf("DisableBaseReuse run still exported a base pair (%p, %p)", sol.FinalBase, sol.FinalBaseSpare)
	}
	if sol.Base.FinalFromBase != 0 {
		t.Fatalf("reuse-off run claims base-materialized finals: %+v", sol.Base)
	}
}

// heBenchModel is internal/scenario's HEBenchInstance (which this package
// cannot import): HE-31 at 6 Mbps under every fifth aggregate of the §3
// workload — tightly coupled enough that a third of its candidates affect
// more than half the bundle list.
func heBenchModel(t *testing.T, seed int64) *flowmodel.Model {
	t.Helper()
	topo, err := topology.HurricaneElectric(6 * unit.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	full, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := full.Subset(func(a traffic.Aggregate) bool { return a.ID%5 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunWarmIndependentOfHistory pins that a run owes nothing to the runs
// its optimizer made before: run k of one long-lived optimizer — the shape
// a Session and a daemon tenant keep — equals a fresh optimizer's warm run
// from the same bundles, in solution and in how it got there. (A run-long
// "delta is not paying" latch that Run never cleared used to leave every
// run after the first coupled one on full evaluations with no base.)
func TestRunWarmIndependentOfHistory(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		kept, err := New(heBenchModel(t, seed), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var from []flowmodel.Bundle
		for k := 1; k <= 3; k++ {
			got, err := kept.RunWarm(context.Background(), from)
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, k, err)
			}
			fresh, err := New(heBenchModel(t, seed), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RunWarm(context.Background(), from)
			if err != nil {
				t.Fatalf("seed %d run %d (fresh): %v", seed, k, err)
			}
			if got.Utility != want.Utility || got.Steps != want.Steps || !reflect.DeepEqual(got.Bundles, want.Bundles) {
				t.Fatalf("seed %d run %d: solution depends on history: utility %v vs %v, steps %d vs %d",
					seed, k, got.Utility, want.Utility, got.Steps, want.Steps)
			}
			if got.Delta != want.Delta || got.Base != want.Base {
				t.Fatalf("seed %d run %d: evaluation path depends on history:\n kept  %+v %+v\n fresh %+v %+v",
					seed, k, got.Delta, got.Base, want.Delta, want.Base)
			}
			if got.Delta.Calls == 0 || got.Delta.Fallbacks != 0 || got.Base.FinalFromBase != 1 {
				t.Errorf("seed %d run %d: not scored incrementally end to end: %+v %+v", seed, k, got.Delta, got.Base)
			}
			from = got.Bundles
		}
	}
}
