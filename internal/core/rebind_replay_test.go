package core_test

import (
	"context"
	"testing"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/scenario"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// newOptimizer builds the optimizer a scenario.Stream borrows, bound to the
// start instance.
func newOptimizer(t *testing.T, topo *topology.Topology, mat *traffic.Matrix, opts core.Options) *core.Optimizer {
	t.Helper()
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.New(model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestRebindBoundsPathMemoAcrossReplays is TestRebindBoundsPathMemo for an
// optimizer that outlives its replays, as a Session's does: 200 crisis
// replays of benchmark/'s HE-31 instance back to back on one optimizer, and
// what its generators keep stays bounded by the instance, not by how many
// replays have run. Rebind trims to aggregates × MaxPathsPerAggregate
// entries; between it and the run's first snapshot the repair and the
// initial placement ask only for lowest-delay paths under the epoch's one
// forbidden set — at most an answer per aggregate and a tree per node.
func TestRebindBoundsPathMemoAcrossReplays(t *testing.T) {
	replays := 200
	if testing.Short() {
		replays = 20
	}
	topo, mat, err := scenario.HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	// A dozen moves an epoch fill the memo past its bound every few epochs
	// all the same, at a fifth of the cost of running each to its optimum.
	var opt *core.Optimizer
	atStart := 0 // entries at the running epoch's step 0
	opts := scenario.Options{Core: core.Options{Workers: 1, MaxSteps: 12, Trace: func(s core.Snapshot) {
		if s.Step == 0 {
			atStart = opt.PathEntries()
		}
	}}}
	opt = newOptimizer(t, topo, mat, opts.Core)
	const maxPaths = 15 // core.Options' default MaxPathsPerAggregate
	atEnd, flushes, peak := 0, 0, 0
	for seed := int64(1); seed <= int64(replays); seed++ {
		sc := scenario.Crisis(seed, 3, 1.3, 3)
		for er, err := range scenario.Stream(context.Background(), opt, nil, topo, mat, sc, opts) {
			if err != nil {
				t.Fatalf("replay %d: %v", seed, err)
			}
			if bound := er.Aggregates*(maxPaths+1) + topo.NumNodes(); atStart > bound {
				t.Fatalf("replay %d epoch %d: %d entries at step 0, bound %d (%d aggregates)", seed, er.Epoch, atStart, bound, er.Aggregates)
			}
			if atStart < atEnd {
				flushes++
			}
			atEnd = opt.PathEntries()
			peak = max(peak, atEnd)
		}
	}
	if flushes == 0 {
		t.Errorf("the memo never passed its bound (peak %d entries): nothing was flushed", peak)
	}
	t.Logf("%d replays: %d flushes, peak %d entries", replays, flushes, peak)
}
