// Command benchmark is the repository's reference benchmark: four
// workloads, end-to-end metrics from an untraced pass, per-layer metrics
// from a traced pass over the same operations, and a correctness gate on
// both. BENCHMARK.json at the repository root is its contract; README.md
// in this directory says what every number means.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh --runs K [--seed N] [--out FILE]
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "workload to run once (see BENCHMARK.json); empty with -runs runs them all")
		seed     = flag.Int64("seed", 1, "the only source of randomness: cold matrices, event timelines, tenant matrices")
		seconds  = flag.Float64("seconds", 0, "measured wall time of one run (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: untraced then traced half, per-layer metrics")
		out      = flag.String("out", "", "also write the full record (or the -runs report) to this file")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans as JSON Lines to this file after the run")
		runs     = flag.Int("runs", 0, "run every workload (or -workload) this many times in child processes and report medians, quartiles and spread against the bounds")
		seedStep = flag.Int64("seed-step", 1, "with -runs: seed increment between runs (0 repeats one seed, whose result digests must then match)")
		compare  = flag.Bool("compare", false, "compare two -runs reports given as arguments: A.json B.json")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(sp, flag.Arg(0), flag.Arg(1))
	case *runs > 0:
		return runMany(ctx, sp, manyConfig{
			workload: *workload, seed: *seed, seedStep: *seedStep, seconds: *seconds,
			runs: *runs, out: *out,
		})
	}
	if *workload == "" {
		return fmt.Errorf("-workload is required (one of %v), or use -runs", workloadNames())
	}
	rec, spans, err := runOne(ctx, runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, sz: shippedSizes, spec: sp})
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := errors.Join(writeJSONL(f, spans), f.Close()); err != nil {
			return err
		}
	}
	return emit(rec, *out)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// emit prints a run for people, then the full record on one line, then
// — last, as the contract asks — the result on one line. A failed
// correctness gate still prints everything, and exits non-zero.
func emit(rec *record, out string) error {
	h := rec.Header
	fmt.Printf("%s seed=%d trace=%d seconds=%g  go=%s commit=%s nproc=%d gomaxprocs=%d workers=%d lanes=%d\n",
		h.Workload, h.Seed, h.Trace, h.Seconds, h.GoVersion, h.Commit, h.NumCPU, h.GOMAXPROCS, h.Workers, h.Lanes)
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Printf("  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  operations %.0f (median %.4g ms), attempted %d, failed %d, result_digest %s\n",
		rec.Extra["op_n"], rec.Extra["op_ms_p50"], rec.Result.Attempted, rec.Result.Failed, rec.ResultDigest)
	for _, p := range rec.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	for _, f := range rec.Findings {
		fmt.Printf("  finding: %s\n", f)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.WriteFile(out, append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("record %s\n", full)
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !rec.Result.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the correctness gate", h.Workload, rec.Result.Failed, rec.Result.Attempted)
	}
	return nil
}
