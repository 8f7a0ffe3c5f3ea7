package scenario

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fubar/internal/core"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// replayPastLedgerRace runs a replay, and runs it again when it died of the
// known control-plane ledger race (ROADMAP "Fix the controller-kill-storm
// ledger race": about one kill-storm replay in 300 aborts with a FlowMod
// acked after its controller seat was killed). Such an abort says nothing
// about the optimizer, and a replay that completes is deterministic.
func replayPastLedgerRace(t *testing.T, replay func() (*Result, error)) *Result {
	t.Helper()
	for attempt := 1; ; attempt++ {
		res, err := replay()
		if err == nil {
			return res
		}
		if attempt == 5 || !strings.Contains(err.Error(), "switches acked") {
			t.Fatal(err)
		}
		t.Logf("attempt %d hit the control-plane ledger race, replaying: %v", attempt, err)
	}
}

// TestKeptOptimizerMatchesPerEpochRebuild is the replay-level gate for the
// engine keeping one optimizer: on timelines that grow and shrink the
// matrix, fail and drain links and shared-risk groups, and kill controller
// seats mid-replay, open loop and closed, at Workers {1, 4} and DeltaEval
// {Auto, Off}, the replay — every EpochResult bar Elapsed, and the install
// sequence — is the one a fresh optimizer per epoch produces.
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
			for _, mode := range []core.DeltaMode{core.DeltaAuto, core.DeltaOff} {
				if lg.topo == he && (workers != 1 || mode != core.DeltaAuto) {
					continue // HE replays cost seconds under -race; the ring legs cover the matrix
				}
				t.Run(fmt.Sprintf("%s/workers-%d/delta-%v", lg.name, workers, mode), func(t *testing.T) {
					coreOpts := core.Options{Workers: workers, DeltaEval: mode}
					replay := func() (*Result, error) {
						if lg.closed {
							return runClosedLoop(context.Background(), lg.topo, lg.mat, lg.sc,
								Options{Core: coreOpts, Replicas: 3})
						}
						return run(context.Background(), lg.topo, lg.mat, lg.sc, Options{Core: coreOpts})
					}
					kept := replayPastLedgerRace(t, replay)
					var rebuilt *Result
					withFreshOptimizerPerEpoch(func() { rebuilt = replayPastLedgerRace(t, replay) })
					if !kept.Equivalent(rebuilt) {
						for i := range kept.Epochs {
							a, b := kept.Epochs[i], rebuilt.Epochs[i]
							a.Elapsed, b.Elapsed = 0, 0
							if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
								t.Fatalf("epoch %d differs:\n kept    %+v\n rebuilt %+v", i, a, b)
							}
						}
						t.Fatalf("install sequences differ:\n kept    %+v\n rebuilt %+v", kept.Installs, rebuilt.Installs)
					}
					steps := 0
					for _, e := range kept.Epochs {
						steps += e.Steps
					}
					if steps == 0 {
						t.Error("replay committed no move; the comparison proves little")
					}
				})
			}
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

// TestWarmEpochAllocationCeiling keeps the per-epoch rebuild from creeping
// back: a warm epoch of benchmark/'s HE-31 crisis replay at Workers 1
// allocates ≈0.45 MB on the engine's kept optimizer and ≈0.95 MB when the
// optimizer, its path memo and its arenas are built anew each epoch. Bytes
// allocated are a count, not a time — the same on any machine, a few
// percent apart between seeds.
func TestWarmEpochAllocationCeiling(t *testing.T) {
	const ceiling = 650 << 10 // bytes per warm epoch
	topo, mat, err := HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	var bytes uint64
	epochs := 0
	for seed := int64(41); seed < 44; seed++ {
		sc := Crisis(seed, 8, 1.3, 3)
		var before, after runtime.MemStats
		for er, err := range Stream(context.Background(), nil, topo, mat, sc, Options{Core: core.Options{Workers: 1}}) {
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
