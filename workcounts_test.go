package fubar

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestWorkCountsPinned is the CI gate on what is exact about the optimizer's
// work: it runs the operations BenchmarkReplayEpoch and
// BenchmarkColdOptimizeScaleS run at CI's bench times — 70 warm epochs of
// the HE-31 crisis replay, 70 of the closed-loop soak ring, 70 of the
// open-loop diurnal ring a daemon-mixed tenant replays, the eight cold
// scale-s matrices once each — and compares the totals of candidates scored,
// bundles refuted by link and by level, committed steps, escalations, path
// searches, the nodes those searches settled, the builds of the
// optimizer's bundle list and the re-runs of delta sub-problems with
// testdata/work_counts.golden. Steps and
// escalations move only if the optimizer walks another trajectory (the
// determinism tests will say so too); candidates, refuted bundles, searches
// and settled nodes are what the pass loop asks of flowmodel and pathgen on
// the way, so a change there is a change in cost that no solution shows.
// Builds are one per run plus one per step whose collection appended a
// path; a step that rebuilt its list regardless would show here as a count
// near the steps scored, not as a few percent of time. Re-runs are the
// scoring passes a sub-fill threw away and started over wider; one that
// re-ran where it could have continued in place shows here. Every row also
// carries the heap objects its operations allocated
// (runtime.MemStats.Mallocs) — the replay legs' epochs, and the cold
// optimizations with their fresh sessions: exact per commit bar the
// runtime's own and the closed loop's control-plane goroutines, so the
// gate is a ceiling — the recorded count plus 5% — where every other
// column is an equality.
// Regenerate with `go test . -run TestWorkCountsPinned -update` and say why
// in the commit.
func TestWorkCountsPinned(t *testing.T) {
	var buf bytes.Buffer
	row := func(name string, ops int, w workCounts, tail string) {
		fmt.Fprintf(&buf, "%-12s %3d  candidates %6d  refuted_link %5d  refuted_level %5d  steps %5d  escalations %4d  searches %5d  settled %7d  builds %5d  reruns %5d%s\n",
			name, ops, w.candidates, w.refutedLink, w.refutedLevel, w.steps, w.escalations, w.searches, w.settled, w.builds, w.reruns, tail)
	}
	for _, leg := range replayLegs {
		var work, mark workCounts
		var before, after runtime.MemStats
		var mallocs uint64
		tel := NewTelemetry()
		leg.warmEpochs(t, 70, tel,
			func() {
				mark = telemetryWork(tel)
				runtime.ReadMemStats(&before)
			},
			func() {
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				work.add(telemetryWork(tel).sub(mark))
			})
		row(leg.name, 70, work, fmt.Sprintf("%s%d", mallocsColumn, mallocs))
	}
	topo, mats := coldScaleS(t)
	var cold workCounts
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, mat := range mats {
		cold.add(solutionWork(coldOptimize(t, topo, mat)))
	}
	runtime.ReadMemStats(&after)
	row("cold-scale-s", len(mats), cold, fmt.Sprintf("%s%d", mallocsColumn, after.Mallocs-before.Mallocs))

	golden := filepath.Join("testdata", "work_counts.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	ok := len(gotLines) == len(wantLines)
	for i := 0; ok && i < len(gotLines); i++ {
		gotExact, gotMallocs, _ := strings.Cut(gotLines[i], mallocsColumn)
		wantExact, wantMallocs, _ := strings.Cut(wantLines[i], mallocsColumn)
		ok = gotExact == wantExact && (gotMallocs == "") == (wantMallocs == "")
		if ok && gotMallocs != "" {
			var g, w uint64
			_, gerr := fmt.Sscan(gotMallocs, &g)
			_, werr := fmt.Sscan(wantMallocs, &w)
			ok = gerr == nil && werr == nil && g <= w+w/20
		}
	}
	if !ok {
		t.Errorf("work counts diverged from %s (mallocs may read up to 5%% over):\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// mallocsColumn introduces the one column of work_counts.golden that is a
// ceiling and not an equality.
const mallocsColumn = "  mallocs "

// TestTelemetryCostsNoMallocs is the gate on what telemetry costs a warm
// replay epoch: each replayLeg's epochs, replayed with telemetry on and
// off, may take at most telemetryMallocSlack heap objects more per epoch
// on. Spans are fixed-size records copied into the tracer's ring and the
// metric handles are built once per Telemetry, so an epoch's counters,
// histograms and spans allocate nothing; a per-event map shows here as
// tens of objects an epoch, a handle bundle rebuilt per Core() call as
// one.
func TestTelemetryCostsNoMallocs(t *testing.T) {
	const epochs = 70
	for _, leg := range replayLegs {
		perEpoch := func(tel *Telemetry) float64 {
			var before, after runtime.MemStats
			var mallocs uint64
			leg.warmEpochs(t, epochs, tel,
				func() { runtime.ReadMemStats(&before) },
				func() {
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
				})
			return float64(mallocs) / epochs
		}
		off, on := perEpoch(nil), perEpoch(NewTelemetry())
		t.Logf("%s: %.1f mallocs per warm epoch with telemetry off, %.1f on", leg.name, off, on)
		if slack := telemetryMallocSlack(); on > off+slack {
			t.Errorf("%s: telemetry costs %.2f mallocs per warm epoch (%.1f on, %.1f off), want at most %v",
				leg.name, on-off, on, off, slack)
		}
	}
}

// telemetryMallocSlack is the per-epoch allowance of
// TestTelemetryCostsNoMallocs: above a normal build's on − off noise (at
// most 0.1 an epoch on every leg), below the one object an epoch of the
// smallest cost it must catch. A race-detector build allocates
// nondeterministically — its sync.Pools, fmt's printer cache among them,
// drop what they are given at random — by up to ±0.9 an epoch here, so
// under -race the allowance stays at one object, and the normal builds'
// runs of the gate catch the one-object costs.
func telemetryMallocSlack() float64 {
	if raceBuild {
		return 1
	}
	return 0.25
}
