package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// waxmanScaleInstance builds a ~200-node Waxman instance with a sparse
// random matrix — the test-local analogue of the scenario package's
// scale presets (core tests cannot import scenario: it imports core).
// Calibrated so shortest-path routing is congested but the congestion is
// localized (delta evaluations rarely fall back).
func waxmanScaleInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Waxman(200, 0.15, 0.15, 20*unit.Mbps, 50*unit.Millisecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(seed + 1)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, 1200)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// TestScaleWorkerDeterminism asserts the scale-out pipeline's acceptance
// criterion on a ~200-node instance: the committed move sequence —
// per-step utility trajectory, final bundles, utility, stop reason — is
// bit-identical across worker counts and under the full-evaluation oracle.
func TestScaleWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second 200-node determinism matrix")
	}
	topo, mat := waxmanScaleInstance(t, 3)
	const maxSteps = 12
	base := Options{Workers: 1, MaxSteps: maxSteps}
	ref, refTrace := runWithOptions(t, topo, mat, base)
	if ref.Steps == 0 {
		t.Fatal("reference run committed no moves; instance not congested")
	}
	if ref.Delta.Calls == 0 || ref.Delta.Fallbacks*4 > ref.Delta.Calls {
		t.Fatalf("instance miscalibrated for the delta path: %d fallbacks of %d calls",
			ref.Delta.Fallbacks, ref.Delta.Calls)
	}
	variants := []struct {
		name string
		full bool
		mod  func(*Options)
	}{
		{"workers=1 full evaluation", true, func(*Options) {}},
		{"workers=4", false, func(o *Options) { o.Workers = 4 }},
		{"workers=4 full evaluation", true, func(o *Options) { o.Workers = 4 }},
		// Telemetry must observe without perturbing: instrumented runs
		// commit the identical move sequence (ISSUE 7 acceptance).
		{"workers=1 telemetry", false, func(o *Options) { o.Telemetry = telemetry.New() }},
		{"workers=4 telemetry", false, func(o *Options) { o.Workers = 4; o.Telemetry = telemetry.New() }},
	}
	for _, v := range variants {
		opts := base
		v.mod(&opts)
		var sol *Solution
		var trace []float64
		Evaluating(v.full, func() { sol, trace = runWithOptions(t, topo, mat, opts) })
		if sol.Steps != ref.Steps {
			t.Errorf("%s: steps = %d, want %d", v.name, sol.Steps, ref.Steps)
		}
		if sol.Utility != ref.Utility {
			t.Errorf("%s: utility = %v, want %v (exact)", v.name, sol.Utility, ref.Utility)
		}
		if sol.Stop != ref.Stop {
			t.Errorf("%s: stop = %v, want %v", v.name, sol.Stop, ref.Stop)
		}
		if !reflect.DeepEqual(sol.Bundles, ref.Bundles) {
			t.Errorf("%s: committed bundles differ from reference", v.name)
		}
		if !reflect.DeepEqual(trace, refTrace) {
			t.Errorf("%s: per-step utility trajectory differs from reference", v.name)
		}
	}
}

// TestCollectionVisitsInertCrossers holds the incremental crosser walk to
// the full-evaluation oracle's scan of every aggregate where a base's
// crosser lists miss
// bundles: every 7th aggregate of these instances wants no bandwidth (a flat
// bandwidth curve, per-flow demand 0), so its bundles are inert in the fill
// and cross no link of the base, yet they carry flows over congested links
// and moving them changes their delay utility. Every step's candidate list
// — aggregate, from, to, move size, in order — must be the oracle's at
// Workers 1 and 4; it is not when walkAggs leaves out the run's zero-demand
// aggregates.
func TestCollectionVisitsInertCrossers(t *testing.T) {
	flat := utility.MustCurve(utility.Point{X: 0, Y: 1})
	// The real-time class's delay curve: moving an inert bundle still
	// changes its utility.
	delay := utility.MustCurve(utility.Point{X: 30, Y: 1}, utility.Point{X: 100, Y: 0})
	type move struct{ agg, from, to, n int }
	inert := 0 // zero-demand candidates the oracle collected
	for seed := int64(1); seed <= 6; seed++ {
		topo, mat := waxmanScaleInstance(t, seed)
		aggs := mat.Aggregates()
		for i := 0; i < len(aggs); i += 7 {
			aggs[i].Fn = utility.MustFunction("flat", flat, delay)
		}
		mat, err := traffic.NewMatrix(topo, aggs)
		if err != nil {
			t.Fatal(err)
		}
		model, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		steps := func(full bool, workers int) [][]move {
			var o *Optimizer
			var err error
			Evaluating(full, func() { o, err = New(model, Options{Workers: workers, MaxSteps: 12}) })
			if err != nil {
				t.Fatal(err)
			}
			var out [][]move
			o.afterScoring = func(cands []candidate, _ float64) {
				ms := make([]move, len(cands))
				for i, c := range cands {
					ms[i] = move{c.agg, c.from, c.to, c.n}
				}
				out = append(out, ms)
			}
			if _, err := o.Run(t.Context()); err != nil {
				t.Fatal(err)
			}
			return out
		}
		for _, workers := range []int{1, 4} {
			want := steps(true, workers)
			for _, ms := range want {
				for _, m := range ms {
					if m.agg%7 == 0 {
						inert++
					}
				}
			}
			got := steps(false, workers)
			if len(got) != len(want) {
				t.Fatalf("seed %d workers=%d: %d scored steps incrementally, %d under the oracle", seed, workers, len(got), len(want))
			}
			for k := range want {
				if !slices.Equal(got[k], want[k]) {
					t.Fatalf("seed %d workers=%d step %d: incremental collection found %d candidates, the oracle %d",
						seed, workers, k, len(got[k]), len(want[k]))
				}
			}
		}
	}
	if inert == 0 {
		t.Fatal("no zero-demand aggregate was ever a candidate: the instances test nothing")
	}
	t.Logf("%d zero-demand candidates, each collected incrementally too", inert)
}

// TestPatchRevertInvariant drives a real optimization with an
// instrumented candidate evaluator and asserts the patch-and-revert
// contract: every candidate's trial buffer equals the step's committed
// dense layout except at exactly the candidate's two patched indices,
// with the aggregate's total flow count preserved. Any failed revert
// leaves a stale entry that the next candidate's comparison catches.
// Incremental scoring and the full-evaluation oracle patch and revert the
// same buffer; the oracle hands the probe no step closure. The list and the buffers are maintained, not rebuilt, so
// after the initial evaluation and every commit the list must equal a
// fresh build from the aggregates' states, and every worker buffer synced
// to its layout must equal it entry for entry.
func TestPatchRevertInvariant(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			testPatchRevert(t, full, workers)
		}
	}
}

func testPatchRevert(t *testing.T, full bool, workers int) {
	topo, mat := congestedInstance(t, 5)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	tag := fmt.Sprintf("full=%v workers=%d", full, workers)
	var o *Optimizer
	snapshots, synced := 0, 0
	trace := func(s Snapshot) {
		snapshots++
		if want := freshList(o.aggs); !reflect.DeepEqual(o.denseBuf, want) {
			t.Fatalf("%s snapshot %d: the maintained list is not a fresh build of the allocation", tag, snapshots)
		}
		for wi, w := range o.workers {
			if w.syncGen != o.denseGen {
				continue // resyncs with a full copy before its next candidate
			}
			synced++
			if !reflect.DeepEqual(w.buf, o.denseBuf) {
				t.Fatalf("%s snapshot %d: worker %d's synced buffer differs from the list", tag, snapshots, wi)
			}
		}
	}
	Evaluating(full, func() { o, err = New(model, Options{Workers: workers, MaxSteps: 20, Trace: trace}) })
	if err != nil {
		t.Fatal(err)
	}
	var candidates atomic.Int64
	var failures atomic.Int64
	o.probe = func(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, bound float64) float64 {
		candidates.Add(1)
		fail := func(format string, args ...any) {
			if failures.Add(1) <= 5 { // cap the error spam
				t.Errorf("%s candidate %d: %s", tag, candidates.Load(), fmt.Sprintf(format, args...))
			}
		}
		if (sc == nil) != full {
			fail("probe got step closure %p", sc)
		}
		if len(buf) != len(o.denseBuf) {
			fail("trial buffer length %d != dense layout %d", len(buf), len(o.denseBuf))
			return 0
		}
		if len(changed) != 2 || changed[0] >= changed[1] {
			fail("changed indices %v, want two ascending", changed)
		}
		for i := range buf {
			if i == changed[0] || i == changed[1] {
				continue
			}
			if !reflect.DeepEqual(buf[i], o.denseBuf[i]) {
				fail("entry %d differs from committed layout outside the patch (stale revert?)", i)
			}
		}
		patched := buf[changed[0]].Flows + buf[changed[1]].Flows
		committed := o.denseBuf[changed[0]].Flows + o.denseBuf[changed[1]].Flows
		if patched != committed {
			fail("patch does not conserve flows: %d vs %d", patched, committed)
		}
		if sc == nil {
			return w.eval.Evaluate(buf).NetworkUtility
		}
		u, _ := w.eval.EvaluateDeltaUtility(sc, buf, changed, bound)
		return u
	}
	sol, err := o.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Steps == 0 {
		t.Fatalf("%s: run committed no moves", tag)
	}
	if candidates.Load() < 100 {
		t.Fatalf("%s: probe saw only %d candidates", tag, candidates.Load())
	}
	if synced == 0 {
		t.Fatalf("%s: no worker buffer was still synced at a snapshot; the commit patch went untested", tag)
	}
}

// freshList builds, independently of buildStepBundles, the list an
// allocation is laid out as: per aggregate in order, its self-pair bundle
// or one bundle per path-set entry, zero-flow placeholders included.
func freshList(aggs []aggState) []flowmodel.Bundle {
	var list []flowmodel.Bundle
	for i, st := range aggs {
		if st.self {
			list = append(list, flowmodel.Bundle{Agg: traffic.AggregateID(i), Flows: st.total})
			continue
		}
		for p, f := range st.flows {
			list = append(list, flowmodel.Bundle{Agg: traffic.AggregateID(i), Flows: f, Edges: st.set.Path(p).Edges, Delay: st.delays[p]})
		}
	}
	return list
}
