package main

import (
	"context"
	"math"
	"regexp"
	"testing"
	"time"
)

// smokeSizes shrinks every workload so the suite finishes in seconds.
var smokeSizes = sizes{
	coldPreset: "scale-xs", heEpochs: 4, heSpike: 1.1, heArrivals: 1, ringEpochs: 30, ringPeriod: 5,
	tenants: 2, replayEpochs: 3, setups: 2,
	layerBudget: 5 * time.Millisecond, layerCalls: 5, benchSteps: 2,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec holds BENCHMARK.json to the limits its contract sets and to
// this program: every workload it names exists here and the other way
// round.
func TestSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, w := range sp.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || regexp.MustCompile(`\n`).MatchString(w.Why) {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range sp.PerLayer {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		seen[m.Name] = true
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", sp.RunSeconds)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at smoke sizes,
// untraced and traced, through the same code the shipped sizes run, and
// requires a green correctness gate and exactly the metrics
// BENCHMARK.json names, each once, with its unit and a finite value.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for trace, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			rec, spans, err := runOne(context.Background(), runConfig{
				workload: w.name, seed: 7, seconds: 0.4, trace: trace, sz: smokeSizes, spec: sp,
			})
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d: %v", w.name, trace, res.Correct, res.Attempted, res.Failed, rec.Problems)
			}
			if len(res.Metrics) != len(list) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(list))
			}
			for _, m := range list {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: %s has unit %q, want %q", w.name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace %d: %s = %v", w.name, trace, m.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, got.Value)
				}
			}
			if rec.ResultDigest == "" {
				t.Errorf("%s trace %d: no result digest", w.name, trace)
			}
			if (trace == 1) != (len(spans) > 0) {
				t.Errorf("%s trace %d: %d spans", w.name, trace, len(spans))
			}
			if trace == 1 && res.Metrics["trace.covered_frac"].Value < 0.9 {
				t.Errorf("%s: trace.covered_frac %v < 0.9", w.name, res.Metrics["trace.covered_frac"].Value)
			}
		}
	}
}

// TestSameSeedSameDigest: the result digest depends on the seed and on
// nothing else — not the run length, not tracing.
func TestSameSeedSameDigest(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64, seconds float64, trace int) string {
		rec, _, err := runOne(context.Background(), runConfig{
			workload: "closedloop-ring-soak", seed: seed, seconds: seconds, trace: trace, sz: smokeSizes, spec: sp,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec.ResultDigest
	}
	a, b, c := run(3, 0.3, 0), run(3, 0.6, 1), run(4, 0.3, 0)
	if a != b {
		t.Errorf("seed 3 gave digests %s and %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 gave the same digest %s", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.9); p != 5 {
		t.Errorf("p90 of 1..5 = %v, want 5", p)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.5); p != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %v, want 0", p)
	}
}

func TestSummarizeAndBounds(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	metricName := sp.EndToEnd[1].Name
	var records []record
	for i, v := range []float64{100, 101, 99, 100, 150} {
		records = append(records, record{
			Header: header{Workload: sp.Workloads[0].Name, Seed: int64(i)},
			Result: result{Metrics: map[string]metric{metricName: {Value: v}}},
		})
	}
	rows := summarize(sp, records)
	if len(rows) != 1 {
		t.Fatalf("%d rows, want 1", len(rows))
	}
	// statistics.quantiles([99, 100, 100, 101, 150], n=4) == [99.5, 100.0, 125.5]
	if r := rows[0]; r.Q1 != 99.5 || r.Median != 100 || r.Q3 != 125.5 || !r.Unresolved {
		t.Errorf("row %+v: want quartiles 99.5 100 125.5 and a spread beyond any bound", r)
	}
}

func TestSubSeedsDoNotOverlap(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for i := -1; i < 50; i++ {
			s := subSeed(seed, i)
			if s < 0 || seen[s] {
				t.Fatalf("subSeed(%d, %d) = %d: negative or repeated", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// TestReplayErrorEndsThePass: a replay error (here a cancelled context)
// ends a count-limited pass, which would otherwise wait for operations
// that can no longer complete, and verify accepts a pass without results.
func TestReplayErrorEndsThePass(t *testing.T) {
	inst, err := heWorkload.setup(env{seed: 1, sz: smokeSizes})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := inst.run(ctx, limit{counts: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 || p.ops() != 0 {
		t.Errorf("cancelled replay: %d failed, %d operations; want a failure and no operations", p.failed, p.ops())
	}
	if _, err := inst.verify(context.Background(), p); err != nil {
		t.Error(err)
	}
}

func TestFirstUnitDiff(t *testing.T) {
	a := map[string]string{"ring0": "aaaaaaaabbbbbbbbcccccccc", "ring1": "11111111"}
	same := map[string]string{"ring0": "aaaaaaaabbbbbbbb", "ring1": "1111111122222222"}
	if st, unit, differ := firstUnitDiff(a, same); differ {
		t.Errorf("runs that agree on every unit both completed differ at %s unit %d", st, unit)
	}
	other := map[string]string{"ring0": "aaaaaaaabbbbbbbbdddddddd", "ring1": "11111111"}
	if st, unit, differ := firstUnitDiff(a, other); !differ || st != "ring0" || unit != 2 {
		t.Errorf("got %s unit %d differ=%t, want ring0 unit 2", st, unit, differ)
	}
}
