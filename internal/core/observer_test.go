package core

import (
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/telemetry"
)

// TestTraceObserverSingleGoroutine pins the observer threading
// contract the public API documents: the Trace callback runs on the
// goroutine that called Run — never on a worker — so callers may read
// and write plain, unsynchronized state from it. The callback below
// mutates ordinary variables while four workers evaluate candidates
// concurrently; under -race (the CI telemetry leg) any callback
// invocation from a worker goroutine would be reported as a data race
// against the optimizer loop's own reads.
func TestTraceObserverSingleGoroutine(t *testing.T) {
	topo, mat := congestedInstance(t, 5)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}

	// Plain state, deliberately unsynchronized: safe iff the contract
	// holds.
	calls := 0
	lastStep := -1
	var lastUtility float64

	o, err := New(model, Options{
		Workers:   4,
		MaxSteps:  15,
		Telemetry: telemetry.New(),
		Trace: func(s Snapshot) {
			calls++
			if s.Step < lastStep {
				t.Errorf("observer saw step %d after step %d", s.Step, lastStep)
			}
			lastStep = s.Step
			lastUtility = s.Result.NetworkUtility
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := o.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Steps == 0 {
		t.Fatal("run committed no moves; instance not congested")
	}
	// Trace fires once for the initial evaluation plus once per
	// committed move.
	if calls != sol.Steps+1 {
		t.Errorf("observer called %d times, want %d (initial + per committed move)", calls, sol.Steps+1)
	}
	if lastUtility != sol.Utility {
		t.Errorf("final observed utility %v != solution utility %v", lastUtility, sol.Utility)
	}
}

// TestPathStatsPublished pins the path-lookup counters: Solution.Paths
// accounts for every lookup of the run, and is the same whatever the
// worker count, since collection runs on the optimizer's one generator and
// only scoring fans out; the registry's fubar_pathgen_lookups_total
// family, trees built and nodes settled end the run equal to it; a second
// run on the same optimizer counts afresh over the warm memo; and none of
// it changes the solution. The instance runs to a local optimum, long
// enough that a collection split over the workers would search on memos
// of its own.
func TestPathStatsPublished(t *testing.T) {
	topo, mat := congestedInstance(t, 3)
	plain, _ := runWithOptions(t, topo, mat, Options{Workers: 1})
	for _, workers := range []int{1, 4} {
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		tel := telemetry.New()
		o, err := New(model, Options{Workers: workers, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := o.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if sol.Utility != plain.Utility || sol.Steps != plain.Steps {
			t.Errorf("workers=%d: instrumented run reached %v in %d steps, plain run %v in %d",
				workers, sol.Utility, sol.Steps, plain.Utility, plain.Steps)
		}
		p := sol.Paths
		if p.Lookups == 0 || p.Lookups != p.MemoHits+p.Donated+p.TreeAnswers+p.Searches {
			t.Errorf("workers=%d: lookups do not add up: %+v", workers, p)
		}
		if p != plain.Paths {
			t.Errorf("workers=%d: paths %+v, the serial run %+v", workers, p, plain.Paths)
		}
		counters := tel.Snapshot().Counters
		for result, want := range map[string]int64{"memo": p.MemoHits, "donor": p.Donated, "tree": p.TreeAnswers, "search": p.Searches} {
			if got := counters[`fubar_pathgen_lookups_total{result="`+result+`"}`]; got != want {
				t.Errorf("workers=%d: registry counts %d %s lookups, solution %d", workers, got, result, want)
			}
		}
		if got := counters["fubar_pathgen_trees_built_total"]; got != p.TreesBuilt {
			t.Errorf("workers=%d: registry counts %d trees, solution %d", workers, got, p.TreesBuilt)
		}
		if got := counters["fubar_pathgen_settled_total"]; got != p.Settled || got == 0 {
			t.Errorf("workers=%d: registry counts %d nodes settled, solution %d", workers, got, p.Settled)
		}
		again, err := o.Run(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if a := again.Paths; a.Lookups != p.Lookups || a.MemoHits <= p.MemoHits {
			t.Errorf("workers=%d: rerun over the warm memo counted %+v, first run %+v", workers, a, p)
		}
	}
}
