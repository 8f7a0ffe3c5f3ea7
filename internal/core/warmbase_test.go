package core

import (
	"context"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/instance"
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

// TestOptimizerKeepsItsBase pins where the persistent base lives now that
// no run exports it: an optimizer builds one Base and every later run — on
// the same instance or after a Rebind — captures into that object, which
// describes the run's final allocation exactly.
func TestOptimizerKeepsItsBase(t *testing.T) {
	o, err := New(mildInstance(t), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var kept *flowmodel.Base
	for run := 0; run < 3; run++ {
		if run == 2 {
			if err := o.Rebind(mildInstance(t), Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		}
		sol, err := o.RunWarm(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Base.FinalFromBase != 1 {
			t.Fatalf("run %d: mild instance did not end base-live: %+v", run, sol.Base)
		}
		if got := o.base.NetworkUtility(); got != sol.Utility {
			t.Fatalf("run %d: live base utility %v != solution utility %v", run, got, sol.Utility)
		}
		if run == 0 {
			kept = o.base
		} else if o.base != kept {
			t.Fatalf("run %d: base changed %p -> %p — storage not kept", run, kept, o.base)
		}
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

// heBenchModel is the catalogue's HE-bench instance: HE-31 at 6 Mbps under
// every fifth aggregate of the §3 workload — tightly coupled enough that a
// third of its candidates affect more than half the bundle list.
func heBenchModel(t *testing.T, seed int64) *flowmodel.Model {
	t.Helper()
	topo, mat, err := instance.HEBench(seed)
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
// run after the first coupled one on full evaluations with no base.) The
// same optimizer is then re-bound to the next seed's instance — the shape a
// replay keeps — where its history is another matrix's altogether.
func TestRunWarmIndependentOfHistory(t *testing.T) {
	var kept *Optimizer
	for _, seed := range []int64{1, 3} {
		var err error
		if kept == nil {
			kept, err = New(heBenchModel(t, seed), Options{Workers: 1})
		} else {
			err = kept.Rebind(heBenchModel(t, seed), Options{Workers: 1})
		}
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
