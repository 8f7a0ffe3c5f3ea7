package scenario

import (
	"context"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"testing"

	"fubar/internal/core"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// TestKeptOptimizerMatchesPerEpochRebuild is the replay-level gate for the
// engine keeping one optimizer and rebuilding its epoch instance in place:
// on timelines that grow and shrink the matrix, fail and drain links and
// shared-risk groups, and kill controller seats mid-replay, open loop and
// closed, at Workers {1, 4}, the replay — every
// EpochResult bar Elapsed, and the install sequence — is the one a fresh
// optimizer and a fresh instance per epoch produce: new matrices, a
// repair into new scratch, a caller-owned solution. So are replays run back
// to back, and two pulled in turn, on one optimizer and one Replayer.
// internal/core's TestKeptOptimizerOracle holds the ring timelines to the
// full-evaluation oracle.
func TestKeptOptimizerMatchesPerEpochRebuild(t *testing.T) {
	ring, ringMat := matrixInstance(t)
	he, heMat, err := HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	crisis, err := ByName("crisis", 23, 10)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := ByName("diurnal", 23, 10)
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		name   string
		topo   *topology.Topology
		mat    *traffic.Matrix
		sc     Scenario
		closed bool
	}
	var legs []leg
	for _, closed := range []bool{false, true} {
		loop := map[bool]string{false: "open", true: "closed"}[closed]
		legs = append(legs,
			leg{loop + "/crisis", ring, ringMat, crisis, closed},
			leg{loop + "/diurnal", ring, ringMat, diurnal, closed},
			leg{loop + "/soak-link-failures", ring, ringMat, Soak(9, 24, 2), closed},
			leg{loop + "/kill-storm", ring, ringMat, ControllerKillStorm(29, 6, 3), closed},
		)
	}
	// The claimed workload itself: benchmark/'s crisis timeline on HE-31.
	legs = append(legs, leg{"open/he-crisis", he, heMat, Crisis(41, 8, 1.3, 3), false})
	for _, lg := range legs {
		for _, workers := range []int{1, 4} {
			if lg.topo == he && workers != 1 {
				continue // HE replays cost seconds under -race; the ring legs cover the matrix
			}
			t.Run(fmt.Sprintf("%s/workers-%d", lg.name, workers), func(t *testing.T) {
				coreOpts := core.Options{Workers: workers}
				replay := func() (*Result, error) {
					if lg.closed {
						return runClosedLoop(context.Background(), lg.topo, lg.mat, lg.sc,
							Options{Core: coreOpts, Replicas: 3})
					}
					return run(context.Background(), lg.topo, lg.mat, lg.sc, Options{Core: coreOpts})
				}
				kept, err := replay()
				if err != nil {
					t.Fatal(err)
				}
				var rebuilt *Result
				withFreshOptimizerPerEpoch(func() { rebuilt, err = replay() })
				if err != nil {
					t.Fatal(err)
				}
				if err := kept.Equivalent(rebuilt); err != nil {
					t.Fatalf("kept vs rebuilt: %v", err)
				}
				if kept.TotalSteps() == 0 {
					t.Error("replay committed no move; the comparison proves little")
				}
			})
		}
	}
	// The same gate one level up: the optimizer outlives not the epoch but
	// the replay, as a Session's does.
	t.Run("across-replays", lentOptimizerMatchesFreshAcrossReplays)
	t.Run("alternating-streams", alternatingStreamsShareOneOptimizer)
}

// lendingReplays is what one owner runs back to back on the optimizer it
// lends: a crisis that grows the matrix (flash-crowd arrivals) while a
// shared-risk group and a maintenance window take links out, a diurnal day
// whose aggregates depart, and a second crisis — each under a policy mask of
// its own, so consecutive replays, like consecutive epochs, re-bind the
// optimizer across different forbidden sets and matrices of different sizes.
func lendingReplays(t *testing.T, topo *topology.Topology, workers int) []struct {
	sc   Scenario
	opts Options
} {
	t.Helper()
	crisis, err := ByName("crisis", 23, 8)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := ByName("diurnal", 31, 8)
	if err != nil {
		t.Fatal(err)
	}
	diurnal.Events = append(diurnal.Events,
		Event{Epoch: 2, Kind: AggregateDepart, Count: 3},
		Event{Epoch: 3, Kind: AggregateArrive, Count: 2},
		Event{Epoch: 5, Kind: AggregateDepart, Count: 4})
	opts := func(forbidden ...topology.LinkID) Options {
		o := Options{Core: core.Options{Workers: workers}, Replicas: 3}
		if len(forbidden) > 0 {
			o.Core.Policy.ForbiddenLinks = pathgen.ForbidLinks(topo, forbidden...)
		}
		return o
	}
	return []struct {
		sc   Scenario
		opts Options
	}{
		{crisis, opts(6)},
		{diurnal, opts(10)},
		{Crisis(24, 8, 1.3, 3), opts()},
	}
}

// lentOptimizerMatchesFreshAcrossReplays is the gate for an optimizer
// and replay storage that outlive their replays, the way a Session's do:
// lendingReplays run back to back on one optimizer and one Replayer — open
// loop, and closed over one control plane — yield, epoch for epoch and
// field for field, what they yield on an optimizer and storage built for
// each replay, and on ones built for each epoch (the
// withFreshOptimizerPerEpoch oracle). Whatever a replay leaves in the
// optimizer — memo, trees, arenas, per-aggregate path sets sized for another
// matrix — or in the storage — matrices, solution, scratch — the next one
// must not be able to tell.
func lentOptimizerMatchesFreshAcrossReplays(t *testing.T) {
	topo, mat := matrixInstance(t)
	for _, closed := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers-%d", map[bool]string{false: "open", true: "closed"}[closed], workers)
			t.Run(name, func(t *testing.T) {
				replays := lendingReplays(t, topo, workers)
				// sequence runs the replays in order over one control plane
				// (when closed), on one optimizer or on one per replay.
				sequence := func(lend bool) []*Result {
					var cp *ControlPlane
					if closed {
						var err error
						if cp, err = NewControlPlane(topo, mat, replays[0].opts); err != nil {
							t.Fatal(err)
						}
						defer cp.Close()
					}
					var opt *core.Optimizer
					var rp *Replayer
					var out []*Result
					for i, r := range replays {
						if opt == nil || !lend {
							var err error
							if opt, err = newOptimizer(topo, mat, r.opts); err != nil {
								t.Fatal(err)
							}
							rp = new(Replayer)
						}
						res, err := Run(topo, r.sc, r.opts, closed, rp.Stream(context.Background(), opt, cp, topo, mat, r.sc, r.opts))
						if err != nil {
							t.Fatalf("replay %d (%s): %v", i, r.sc.Name, err)
						}
						out = append(out, res)
					}
					return out
				}
				lent, fresh := sequence(true), sequence(false)
				var rebuilt []*Result
				withFreshOptimizerPerEpoch(func() { rebuilt = sequence(true) })
				steps := 0
				for i := range replays {
					if err := lent[i].Equivalent(fresh[i]); err != nil {
						t.Fatalf("replay %d, lent vs fresh: %v", i, err)
					}
					if err := lent[i].Equivalent(rebuilt[i]); err != nil {
						t.Fatalf("replay %d, lent vs rebuilt: %v", i, err)
					}
					lo, hi := lent[i].Epochs[0].Aggregates, lent[i].Epochs[0].Aggregates
					for _, e := range lent[i].Epochs {
						lo, hi = min(lo, e.Aggregates), max(hi, e.Aggregates)
					}
					if lo == hi {
						t.Errorf("replay %d (%s) holds %d aggregates throughout: the matrix never moved", i, replays[i].sc.Name, lo)
					}
					steps += lent[i].TotalSteps()
				}
				if steps == 0 {
					t.Error("no replay committed a move; the comparison proves little")
				}
			})
		}
	}
}

// alternatingStreamsShareOneOptimizer: two streams lent the same
// optimizer and started on the same Replayer, pulled in turn, an epoch of
// one between every two epochs of the other, each yield what they yield
// alone. Nothing of a stream lives in the optimizer between its epochs, and
// the second stream finds the replayer's storage taken and builds its own,
// so whoever holds them may lend them again before the first borrower is
// done.
func alternatingStreamsShareOneOptimizer(t *testing.T) {
	topo, mat := matrixInstance(t)
	replays := lendingReplays(t, topo, 1)[:2]
	opt, err := newOptimizer(topo, mat, replays[0].opts)
	if err != nil {
		t.Fatal(err)
	}
	var alone [2]*Result
	var next [2]func() (EpochResult, error, bool)
	var rp Replayer
	for i, r := range replays {
		if alone[i], err = run(context.Background(), topo, mat, r.sc, r.opts); err != nil {
			t.Fatal(err)
		}
		pull, stop := iter.Pull2(rp.Stream(context.Background(), opt, nil, topo, mat, r.sc, r.opts))
		defer stop()
		next[i] = pull
	}
	var alternated [2]Result
	for epoch := 0; epoch < replays[0].sc.Epochs; epoch++ {
		for i := range replays {
			er, err, ok := next[i]()
			if !ok || err != nil {
				t.Fatalf("stream %d epoch %d: ok=%v err=%v", i, epoch, ok, err)
			}
			alternated[i].Epochs = append(alternated[i].Epochs, er)
		}
	}
	for i := range replays {
		if err := (&Result{Epochs: alone[i].Epochs}).Equivalent(&alternated[i]); err != nil {
			t.Fatalf("stream %d, alternated vs alone: %v", i, err)
		}
	}
}

// TestOpenAndClosedLoopShareTheTimeline pins what one epoch loop buys: the
// timeline cursor, the per-epoch RNG and materialize are the same code in
// both modes, so an open-loop and a closed-loop replay of one (scenario,
// seed) apply the same events and optimize the same instances — only what
// happens around the optimizer differs.
func TestOpenAndClosedLoopShareTheTimeline(t *testing.T) {
	topo, mat := matrixInstance(t)
	for _, name := range []string{"crisis", "diurnal", "flashcrowd"} {
		t.Run(name, func(t *testing.T) {
			sc, err := ByName(name, 23, 8)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Core: core.Options{Workers: 1}}
			open, err := run(context.Background(), topo, mat, sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			closed, err := runClosedLoop(context.Background(), topo, mat, sc, opts)
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			for i, o := range open.Epochs {
				c := closed.Epochs[i]
				if !slices.Equal(o.Events, c.Events) {
					t.Errorf("epoch %d events: open %q, closed %q", i, o.Events, c.Events)
				}
				if o.Aggregates != c.Aggregates || o.Flows != c.Flows || o.DemandKbps != c.DemandKbps ||
					o.FailedLinks != c.FailedLinks || o.MaintenanceLinks != c.MaintenanceLinks {
					t.Errorf("epoch %d instance: open %+v, closed %+v", i, o, c)
				}
				events += len(o.Events)
			}
			if events == 0 {
				t.Error("timeline applied no event; the comparison proves little")
			}
		})
	}
}

// TestWarmEpochAllocationCeiling keeps the rebuilds from creeping back: a
// warm epoch of benchmark/'s HE-31 crisis replay at Workers 1 allocates
// ≈69 KiB on an optimizer and a Replayer lent from replay to replay, the
// epoch instance — matrix, warm-start repair, solution — rebuilt in place;
// ≈0.14 MB when every epoch allocates its instance anew, ≈0.21 MB when each
// replay builds its own optimizer too, ≈0.45 MB when every epoch re-grows
// its lists and maps as well, and ≈0.95 MB when the optimizer, its path
// memo and its arenas are built anew each epoch. Bytes allocated are a
// count, not a time — the same on any machine, a few percent apart between
// seeds.
func TestWarmEpochAllocationCeiling(t *testing.T) {
	const ceiling = 90 << 10 // bytes per warm epoch
	topo, mat, err := HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Core: core.Options{Workers: 1}}
	opt, err := newOptimizer(topo, mat, opts)
	if err != nil {
		t.Fatal(err)
	}
	var bytes uint64
	epochs := 0
	var rp Replayer
	for seed := int64(41); seed < 44; seed++ {
		sc := Crisis(seed, 8, 1.3, 3)
		var before, after runtime.MemStats
		for er, err := range rp.Stream(context.Background(), opt, nil, topo, mat, sc, opts) {
			if err != nil {
				t.Fatal(err)
			}
			if er.Epoch > 0 {
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				epochs++
			}
			runtime.ReadMemStats(&before)
		}
	}
	if per := bytes / uint64(epochs); per > ceiling {
		t.Errorf("a warm HE crisis epoch allocates %d KiB, ceiling %d KiB: is something rebuilt per epoch again?", per>>10, ceiling>>10)
	} else {
		t.Logf("%d KiB per warm epoch over %d epochs (ceiling %d KiB)", per>>10, epochs, ceiling>>10)
	}
}
