package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// congestedInstance builds a mid-size ring instance with enough contention
// that the optimizer commits a nontrivial move sequence.
func congestedInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(seed + 32)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
}

// runWithWorkers optimizes the instance at the given worker count and
// returns the solution plus the traced per-step utility trajectory.
func runWithWorkers(t *testing.T, topo *topology.Topology, mat *traffic.Matrix, workers int) (*Solution, []float64) {
	t.Helper()
	return runWithOptions(t, topo, mat, Options{Workers: workers})
}

// runWithOptions optimizes the instance under opts, tracing the per-step
// utility trajectory.
func runWithOptions(t *testing.T, topo *topology.Topology, mat *traffic.Matrix, opts Options) (*Solution, []float64) {
	t.Helper()
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	var steps []float64
	opts.Trace = func(s Snapshot) {
		steps = append(steps, s.Result.NetworkUtility)
	}
	sol, err := Run(context.Background(), model, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sol, steps
}

// TestWorkersDeterminism asserts the acceptance criterion: any worker
// count commits the exact move sequence of Workers=1 — same step count,
// same committed bundles, same per-step and final utility, bit for bit.
func TestWorkersDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		topo, mat := congestedInstance(t, seed)
		serial, serialTrace := runWithWorkers(t, topo, mat, 1)
		if serial.Steps == 0 {
			t.Fatalf("seed %d: serial run committed no moves; instance not congested enough", seed)
		}
		for _, workers := range []int{2, 4, 9} {
			par, parTrace := runWithWorkers(t, topo, mat, workers)
			if par.Steps != serial.Steps {
				t.Errorf("seed %d workers=%d: steps = %d, want %d", seed, workers, par.Steps, serial.Steps)
			}
			if par.Utility != serial.Utility {
				t.Errorf("seed %d workers=%d: utility = %v, want %v (exact)", seed, workers, par.Utility, serial.Utility)
			}
			if par.Stop != serial.Stop {
				t.Errorf("seed %d workers=%d: stop = %v, want %v", seed, workers, par.Stop, serial.Stop)
			}
			if !reflect.DeepEqual(par.Bundles, serial.Bundles) {
				t.Errorf("seed %d workers=%d: committed bundles differ from serial run", seed, workers)
			}
			if !reflect.DeepEqual(parTrace, serialTrace) {
				t.Errorf("seed %d workers=%d: per-step utility trajectory differs from serial run", seed, workers)
			}
		}
	}
}

// TestDeltaEvalDeterminism asserts the incremental-evaluation acceptance
// criterion: the committed move sequence — step count, per-step utility
// trajectory, final bundles, stop reason — is the full-evaluation oracle's,
// at one and at several workers, bit for bit.
func TestDeltaEvalDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		topo, mat := congestedInstance(t, seed)
		var ref *Solution
		var refTrace []float64
		WithFullEvaluation(func() { ref, refTrace = runWithOptions(t, topo, mat, Options{Workers: 1}) })
		if ref.Steps == 0 {
			t.Fatalf("seed %d: reference run committed no moves", seed)
		}
		for _, workers := range []int{1, 4} {
			for _, full := range []bool{false, true} {
				if workers == 1 && full {
					continue // that's the reference itself
				}
				var sol *Solution
				var trace []float64
				Evaluating(full, func() { sol, trace = runWithOptions(t, topo, mat, Options{Workers: workers}) })
				tag := fmt.Sprintf("seed %d workers=%d full=%v", seed, workers, full)
				if sol.Steps != ref.Steps {
					t.Errorf("%s: steps = %d, want %d", tag, sol.Steps, ref.Steps)
				}
				if sol.Utility != ref.Utility {
					t.Errorf("%s: utility = %v, want %v (exact)", tag, sol.Utility, ref.Utility)
				}
				if sol.Stop != ref.Stop {
					t.Errorf("%s: stop = %v, want %v", tag, sol.Stop, ref.Stop)
				}
				if !reflect.DeepEqual(sol.Bundles, ref.Bundles) {
					t.Errorf("%s: committed bundles differ from reference", tag)
				}
				if !reflect.DeepEqual(trace, refTrace) {
					t.Errorf("%s: per-step utility trajectory differs from reference", tag)
				}
				if !full && sol.Delta.Calls == 0 {
					t.Errorf("%s: incremental run made no delta evaluations", tag)
				}
				if full && sol.Delta.Calls != 0 {
					t.Errorf("%s: full-evaluation run made %d delta evaluations", tag, sol.Delta.Calls)
				}
			}
		}
	}
}

// TestCandidateBenchDifferential replays a real optimization with every
// candidate evaluated through all three strategies (core.RunCandidateBench),
// asserting bit-identical utilities, and full-Result deltas identical to
// the full evaluations field by field, across well over 1000 recorded
// optimizer candidates, scored against the run's persistent base.
func TestCandidateBenchDifferential(t *testing.T) {
	topo, mat := congestedInstance(t, 1)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCandidateBench(model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical {
		t.Fatalf("delta candidate scores diverged from full evaluations: %v", r.Mismatch)
	}
	if len(r.FullNs) < 1000 {
		t.Fatalf("bench exercised only %d candidates, want >= 1000", len(r.FullNs))
	}
	// Each candidate makes one full-result delta call and one utility-only
	// delta call (both count toward Calls; only the latter toward
	// UtilityOnlyCalls).
	if r.Delta.Calls != 2*int64(len(r.FullNs)) {
		t.Fatalf("delta calls %d != 2x candidates %d", r.Delta.Calls, len(r.FullNs))
	}
	if r.Delta.UtilityOnlyCalls != int64(len(r.FullNs)) {
		t.Fatalf("utility-only delta calls %d != candidates %d", r.Delta.UtilityOnlyCalls, len(r.FullNs))
	}
	if len(r.UtilNs) != len(r.FullNs) {
		t.Fatalf("utility timings %d != candidates %d", len(r.UtilNs), len(r.FullNs))
	}
	// The probe replaces only the scoring call: the run keeps its
	// persistent base, so the three-way check above ran against remapped
	// and rebased bases, not a fresh capture per step.
	if b := r.Solution.Base; b.Captures != 1 || b.Rebases == 0 {
		t.Fatalf("bench run did not keep the persistent base: %+v", b)
	}
}

// TestStepClosureWorkersMatchSerial scores every candidate exactly against
// its step's one shared closure, built on the base arena and extended by
// every worker's arena at once: at Workers 4 each step must collect the
// candidates Workers 1 collects and score them bit for bit the same. Under
// -race this is where a worker writing the base arena's closure would show.
func TestStepClosureWorkersMatchSerial(t *testing.T) {
	topo, mat := congestedInstance(t, 3)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [][]candidate {
		o, err := New(model, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		o.probe = exactScore
		var steps [][]candidate
		o.afterScoring = func(cands []candidate, _ float64) {
			steps = append(steps, append([]candidate(nil), cands...))
		}
		if _, err := o.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	serial, parallel := run(1), run(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Workers 4 scored %d steps unlike Workers 1's %d", len(parallel), len(serial))
	}
	shared := 0
	for _, cands := range serial {
		if len(cands) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no step had two candidates to share a closure")
	}
}

// TestWorkersRace exercises the parallel trial-move engine with more
// workers than cores; run under -race this verifies the Eval arenas and
// the read-only sharing of optimizer state.
func TestWorkersRace(t *testing.T) {
	topo, mat := congestedInstance(t, 3)
	sol, _ := runWithWorkers(t, topo, mat, 4)
	if sol.Steps == 0 {
		t.Fatal("run committed no moves; instance not congested enough to exercise workers")
	}
	if sol.Utility <= sol.InitialUtility {
		t.Errorf("utility %v did not improve over initial %v", sol.Utility, sol.InitialUtility)
	}
}

// TestWorkersDefault checks the GOMAXPROCS default and that explicit
// worker counts survive withDefaults.
func TestWorkersDefault(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers < 1 {
		t.Errorf("default Workers = %d, want >= 1", o.Workers)
	}
	o = Options{Workers: 3}.withDefaults()
	if o.Workers != 3 {
		t.Errorf("Workers = %d, want 3", o.Workers)
	}
}
