package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/report"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// soakPeriod is the soak timeline's event period in epochs, the one
// BENCH_soak_baseline.json was recorded at.
const soakPeriod = 25

// soakBenchRecord is the JSON record `-exp soak` writes: a long sparse
// soak timeline streamed through the plain replay (and a tenth of it
// through the full closed loop), with forced-GC heap watermarks sampled
// along the way and asserted flat — the O(1)-in-epochs memory contract
// of Stream, open loop and closed, at soak scale — plus the replay's
// utility trajectory, downsampled to a fixed point budget.
type soakBenchRecord struct {
	Benchmark           string              `json:"benchmark"`
	Scenario            string              `json:"scenario"`
	Seed                int64               `json:"seed"`
	Topology            string              `json:"topology"`
	Aggregates          int                 `json:"aggregates"`
	Period              int                 `json:"period"`
	GOMAXPROCS          int                 `json:"gomaxprocs"`
	PlainEpochs         int                 `json:"plain_epochs"`
	PlainElapsedNs      int64               `json:"plain_elapsed_ns"`
	PlainEpochsPerSec   float64             `json:"plain_epochs_per_sec"`
	PlainHeapSamples    []uint64            `json:"plain_heap_samples"`
	PlainHeapBounded    bool                `json:"plain_heap_bounded"`
	ClosedEpochs        int                 `json:"closed_epochs"`
	ClosedElapsedNs     int64               `json:"closed_elapsed_ns"`
	ClosedEpochsPerSec  float64             `json:"closed_epochs_per_sec"`
	ClosedHeapSamples   []uint64            `json:"closed_heap_samples"`
	ClosedHeapBounded   bool                `json:"closed_heap_bounded"`
	WireReconciled      bool                `json:"wire_reconciled"`
	Trajectory          scenario.Trajectory `json:"trajectory"`
	ClosedLoopTrajector scenario.Trajectory `json:"closed_trajectory"`
}

// soakInstance is the soak bench's small ring — the same shape the
// scenario-matrix tests replay, sized so a million plain epochs fit a
// nightly budget (~1.2 ms/epoch).
func soakInstance(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, seed)
	if err != nil {
		return nil, nil, err
	}
	topoS, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed + 6)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(topoS, cfg)
	if err != nil {
		return nil, nil, err
	}
	return topoS, mat, nil
}

// soakHeapWatermark forces a collection and returns the retained heap.
func soakHeapWatermark() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakBench streams a soak timeline of epochs epochs through the plain
// replay and epochs/10 through the closed loop, sampling forced-GC heap
// watermarks sixteen times per leg, recording downsampled trajectories,
// and failing loudly if either leg's watermark grows or an epoch fails
// scenario.EpochResult.Check (the closed loop's wire ledger stops
// reconciling, or an epoch black-holes). This is the nightly
// million-epoch job; the PR smoke leg runs it with -soak-epochs 50000.
// With a baselinePath the fresh record is additionally diffed against
// the checked-in baseline (see soakDiff) and envelope regressions fail
// the run. With tel (-listen) both legs report live; nil leaves them
// uninstrumented.
func soakBench(seed int64, epochs int, outPath, baselinePath string, tel *telemetry.Telemetry) error {
	if epochs < 160 {
		return fmt.Errorf("soak: need at least 160 epochs, got %d", epochs)
	}
	topo, mat, err := soakInstance(seed)
	if err != nil {
		return err
	}
	sc := scenario.Soak(seed+5, epochs, soakPeriod)
	opts := scenario.Options{Core: core.Options{Workers: 2, Telemetry: tel}}
	// One optimizer for both legs: a stream only borrows it.
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	opt, err := core.New(model, opts.Core)
	if err != nil {
		return err
	}

	var replays scenario.Replayer
	const trajPoints = 64
	plainTraj := scenario.NewTrajectoryRecorder(sc.Name, epochs, trajPoints)
	interval := epochs / 16
	var plainSamples []uint64
	n := 0
	start := time.Now()
	for er, err := range replays.Stream(benchCtx, opt, nil, topo, mat, sc, opts) {
		if err != nil {
			return err
		}
		if err := er.Check(); err != nil {
			return fmt.Errorf("soak: %w", err)
		}
		plainTraj.Observe(&er)
		n++
		if n%interval == 0 {
			plainSamples = append(plainSamples, soakHeapWatermark())
		}
	}
	plainT := time.Since(start)
	if n != epochs {
		return fmt.Errorf("soak: plain replay streamed %d epochs, want %d", n, epochs)
	}

	clEpochs := epochs / 10
	clSc := scenario.Soak(seed+7, clEpochs, soakPeriod)
	clTraj := scenario.NewTrajectoryRecorder(clSc.Name, clEpochs, trajPoints)
	clInterval := clEpochs / 16
	var clSamples []uint64
	n = 0
	start = time.Now()
	cp, err := scenario.NewControlPlane(topo, mat, opts)
	if err != nil {
		return err
	}
	defer cp.Close()
	for er, err := range replays.Stream(benchCtx, opt, cp, topo, mat, clSc, opts) {
		if err != nil {
			return err
		}
		if err := er.Check(); err != nil {
			return fmt.Errorf("soak: closed loop: %w", err)
		}
		clTraj.Observe(&er)
		n++
		if n%clInterval == 0 {
			clSamples = append(clSamples, soakHeapWatermark())
		}
	}
	clT := time.Since(start)
	if n != clEpochs {
		return fmt.Errorf("soak: closed-loop replay streamed %d epochs, want %d", n, clEpochs)
	}

	plainBounded, clBounded := scenario.HeapBounded(plainSamples), scenario.HeapBounded(clSamples)
	rec := soakBenchRecord{
		Benchmark:           "soak: streaming scenario replay, O(1) memory in epochs",
		Scenario:            sc.Name,
		Seed:                seed,
		Topology:            topo.Summary(),
		Aggregates:          mat.NumAggregates(),
		Period:              soakPeriod,
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		PlainEpochs:         epochs,
		PlainElapsedNs:      plainT.Nanoseconds(),
		PlainEpochsPerSec:   float64(epochs) / plainT.Seconds(),
		PlainHeapSamples:    plainSamples,
		PlainHeapBounded:    plainBounded == nil,
		ClosedEpochs:        clEpochs,
		ClosedElapsedNs:     clT.Nanoseconds(),
		ClosedEpochsPerSec:  float64(clEpochs) / clT.Seconds(),
		ClosedHeapSamples:   clSamples,
		ClosedHeapBounded:   clBounded == nil,
		WireReconciled:      true, // every closed-loop epoch passed Check, whose ledger rule this reports
		Trajectory:          plainTraj.Trajectory(),
		ClosedLoopTrajector: clTraj.Trajectory(),
	}
	t := report.NewTable("soak replay", "metric", "plain", "closed loop")
	t.AddRow("epochs", rec.PlainEpochs, rec.ClosedEpochs)
	t.AddRow("elapsed", plainT.Truncate(time.Millisecond), clT.Truncate(time.Millisecond))
	t.AddRow("epochs/sec", fmt.Sprintf("%.0f", rec.PlainEpochsPerSec), fmt.Sprintf("%.0f", rec.ClosedEpochsPerSec))
	t.AddRow("heap watermark first", fmtMiB(firstOrZero(plainSamples)), fmtMiB(firstOrZero(clSamples)))
	t.AddRow("heap watermark last", fmtMiB(lastOrZero(plainSamples)), fmtMiB(lastOrZero(clSamples)))
	t.AddRow("heap bounded", rec.PlainHeapBounded, rec.ClosedHeapBounded)
	t.AddRow("wire FlowMods == acks", "-", rec.WireReconciled)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if err := rec.Trajectory.Table().Render(os.Stdout); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("soak record written to %s\n", outPath)
	if plainBounded != nil {
		return fmt.Errorf("soak: plain replay: %w (samples %v)", plainBounded, plainSamples)
	}
	if clBounded != nil {
		return fmt.Errorf("soak: closed-loop replay: %w (samples %v)", clBounded, clSamples)
	}
	if baselinePath != "" {
		if err := soakDiff(&rec, baselinePath); err != nil {
			return err
		}
		fmt.Printf("soak record matches baseline %s\n", baselinePath)
	}
	return nil
}

// soakDiff compares a fresh soak record against a checked-in baseline
// and fails on any regression of the deterministic envelope: the
// downsampled trajectories of both legs must match point for point
// (replays are bit-identical per seed at any worker count, so a
// divergence is a behavior change, not noise), and the heap-bounded
// flags must not flip off. Machine-dependent fields —
// wall times, epochs/sec, heap magnitudes — are ignored. The baseline's
// instance key (scenario, seed, epoch counts, period, topology) must
// match, otherwise the comparison is meaningless and the run fails with
// a regenerate hint.
func soakDiff(rec *soakBenchRecord, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("soak: baseline: %w", err)
	}
	var base soakBenchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("soak: baseline %s: %w", baselinePath, err)
	}
	if base.Scenario != rec.Scenario || base.Seed != rec.Seed ||
		base.PlainEpochs != rec.PlainEpochs || base.ClosedEpochs != rec.ClosedEpochs ||
		base.Period != rec.Period || base.Topology != rec.Topology ||
		base.Aggregates != rec.Aggregates {
		return fmt.Errorf("soak: baseline %s describes a different instance (scenario %s seed %d %d/%d epochs period %d) than this run (%s seed %d %d/%d epochs period %d) — regenerate it with the same -seed/-soak-epochs",
			baselinePath, base.Scenario, base.Seed, base.PlainEpochs, base.ClosedEpochs, base.Period,
			rec.Scenario, rec.Seed, rec.PlainEpochs, rec.ClosedEpochs, rec.Period)
	}
	if base.PlainHeapBounded && !rec.PlainHeapBounded {
		return fmt.Errorf("soak: regression vs %s: plain-replay heap no longer bounded", baselinePath)
	}
	if base.ClosedHeapBounded && !rec.ClosedHeapBounded {
		return fmt.Errorf("soak: regression vs %s: closed-loop heap no longer bounded", baselinePath)
	}
	if err := soakTrajDiff("plain", base.Trajectory, rec.Trajectory); err != nil {
		return fmt.Errorf("soak: regression vs %s: %w", baselinePath, err)
	}
	if err := soakTrajDiff("closed-loop", base.ClosedLoopTrajector, rec.ClosedLoopTrajector); err != nil {
		return fmt.Errorf("soak: regression vs %s: %w", baselinePath, err)
	}
	return nil
}

// soakTrajDiff requires two trajectories to be identical, naming the
// first diverging bucket (floats survive the baseline's JSON round trip
// exactly, so equality is the right comparison).
func soakTrajDiff(leg string, base, got scenario.Trajectory) error {
	if base.Family != got.Family || base.Epochs != got.Epochs || len(base.Points) != len(got.Points) {
		return fmt.Errorf("%s trajectory shape changed: baseline %s/%d epochs/%d points, got %s/%d/%d",
			leg, base.Family, base.Epochs, len(base.Points), got.Family, got.Epochs, len(got.Points))
	}
	for i := range base.Points {
		if base.Points[i] != got.Points[i] {
			return fmt.Errorf("%s trajectory diverges at bucket %d (epoch %d): baseline %+v, got %+v",
				leg, i, base.Points[i].Epoch, base.Points[i], got.Points[i])
		}
	}
	return nil
}

func fmtMiB(b uint64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }

func firstOrZero(s []uint64) uint64 {
	if len(s) == 0 {
		return 0
	}
	return s[0]
}

func lastOrZero(s []uint64) uint64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}
