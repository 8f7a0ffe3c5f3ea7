package core

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestPersistentBaseBitIdentical proves the persistent delta base —
// remapped across step layouts and patched on commit instead of
// re-captured — commits the exact solution of full per-candidate
// evaluation (DeltaOff, the oracle), on many seeded instances, and that
// the reuse machinery actually engages.
func TestPersistentBaseBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		_, _, m1 := propInstance(t, seed)
		reuse, err := Run(context.Background(), m1, Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: reuse run: %v", seed, err)
		}
		_, _, m2 := propInstance(t, seed)
		full, err := Run(context.Background(), m2, Options{Workers: 1, DeltaEval: DeltaOff})
		if err != nil {
			t.Fatalf("seed %d: full run: %v", seed, err)
		}
		if reuse.Utility != full.Utility || reuse.Steps != full.Steps ||
			!reflect.DeepEqual(reuse.Bundles, full.Bundles) {
			t.Fatalf("seed %d: persistent base diverged from delta off: utility %v vs %v, steps %d vs %d",
				seed, reuse.Utility, full.Utility, reuse.Steps, full.Steps)
		}
		if full.Base != (BaseStats{}) {
			t.Fatalf("seed %d: DeltaOff touched a base: %+v", seed, full.Base)
		}
		if reuse.Steps == 0 {
			continue // uncongested instance: nothing to assert about reuse
		}
		b := reuse.Base
		if b.Rebases == 0 && b.Remaps == 0 && b.Skips == 0 {
			t.Fatalf("seed %d: base reuse never engaged: %+v", seed, b)
		}
	}
}

// TestPersistentBaseParallelWorkers verifies the persistent base keeps
// the worker-count determinism contract.
func TestPersistentBaseParallelWorkers(t *testing.T) {
	_, _, m1 := propInstance(t, 5)
	w1, err := Run(context.Background(), m1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, m4 := propInstance(t, 5)
	w4, err := Run(context.Background(), m4, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Utility != w4.Utility || w1.Steps != w4.Steps || !reflect.DeepEqual(w1.Bundles, w4.Bundles) {
		t.Fatalf("workers diverged: utility %v vs %v, steps %d vs %d", w1.Utility, w4.Utility, w1.Steps, w4.Steps)
	}
}

// TestRunContextCancelled proves a cancelled context stops the run at a
// candidate-batch boundary with the partial solution published under
// StopCancelled, and that the committed prefix matches an uninterrupted
// run.
func TestRunContextCancelled(t *testing.T) {
	_, _, ref := propInstance(t, 3)
	refSol, err := Run(context.Background(), ref, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refSol.Steps < 3 {
		t.Skipf("instance converged in %d steps; too short to cancel meaningfully", refSol.Steps)
	}
	// Cancel after two committed steps via the trace callback: the next
	// batch check must stop the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, m := propInstance(t, 3)
	sol, err := Run(ctx, m, Options{Workers: 1, Trace: func(s Snapshot) {
		if s.Step == 2 {
			cancel()
		}
	}})
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if sol.Stop != StopCancelled {
		t.Fatalf("stop = %v, want StopCancelled", sol.Stop)
	}
	if sol.Steps != 2 {
		t.Fatalf("cancelled after step 2 but committed %d steps", sol.Steps)
	}
	// The prefix is deterministic: replay the reference with MaxSteps=2
	// and compare allocations.
	_, _, m2 := propInstance(t, 3)
	prefix, err := Run(context.Background(), m2, Options{Workers: 1, MaxSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility != prefix.Utility || !reflect.DeepEqual(sol.Bundles, prefix.Bundles) {
		t.Fatalf("cancelled prefix diverged from MaxSteps prefix: %v vs %v", sol.Utility, prefix.Utility)
	}
}

// TestRunContextDeadline proves an expired context deadline reads as
// StopDeadline.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, m := propInstance(t, 2)
	sol, err := Run(ctx, m, Options{Workers: 1})
	if err != nil {
		t.Fatalf("deadline run errored: %v", err)
	}
	if sol.Stop != StopDeadline {
		t.Fatalf("stop = %v, want StopDeadline", sol.Stop)
	}
	if sol.Steps != 0 {
		t.Fatalf("expired deadline still committed %d steps", sol.Steps)
	}
}

// TestRunWarmReusesOptimizer proves a long-lived optimizer can be rerun
// (the Session shape): a warm rerun from the previous solution is a
// cheap no-op and per-run counters do not accumulate.
func TestRunWarmReusesOptimizer(t *testing.T) {
	_, _, m := propInstance(t, 4)
	o, err := New(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := o.RunWarm(context.Background(), first.Bundles)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Utility < first.Utility {
		t.Fatalf("warm rerun regressed utility: %v -> %v", first.Utility, warm.Utility)
	}
	if warm.Steps > first.Steps/4+1 {
		t.Fatalf("warm rerun from the optimum took %d steps (cold took %d)", warm.Steps, first.Steps)
	}
	if warm.Delta.Calls > 0 && warm.Delta.Calls >= first.Delta.Calls && first.Steps > 2 {
		t.Fatalf("per-run delta counters accumulated across runs: %d then %d", first.Delta.Calls, warm.Delta.Calls)
	}
	// A third run cold restarts from scratch on the same optimizer.
	again, err := o.RunWarm(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Utility != first.Utility || again.Steps != first.Steps {
		t.Fatalf("reused optimizer diverged from fresh run: utility %v vs %v, steps %d vs %d",
			again.Utility, first.Utility, again.Steps, first.Steps)
	}
}
