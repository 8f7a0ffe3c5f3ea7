package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manyConfig is a -runs invocation.
type manyConfig struct {
	workload string
	seed     int64
	seedStep int64
	seconds  float64
	runs     int
	out      string
}

// report is what -runs writes and -compare reads: every child run's
// record and, per (workload, end-to-end metric), the quartiles of its
// values over the runs.
type report struct {
	Records []record `json:"records"`
	Rows    []row    `json:"rows"`
}

// row summarizes one (workload, end-to-end metric) pair over the runs.
type row struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run spread the acceptance
	// rule compares with Bound; a pair whose spread exceeds its bound
	// is unresolved: the benchmark cannot tell a regression from noise
	// there.
	Spread     float64 `json:"spread"`
	Unresolved bool    `json:"unresolved"`
}

// child runs this program once in a process of its own — so peak RSS
// and CPU time belong to one workload — and returns its record.
func child(ctx context.Context, cfg manyConfig, workload string, seed int64, trace int) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var rec *record
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "record "); ok {
			rec = new(record)
			if err := json.Unmarshal([]byte(rest), rec); err != nil {
				return nil, fmt.Errorf("%s seed %d: bad record line: %w", workload, seed, err)
			}
		}
	}
	if rec == nil {
		return nil, fmt.Errorf("%s seed %d: no record (%v)", workload, seed, runErr)
	}
	return rec, nil // a failed correctness gate is in the record
}

// runMany runs each workload cfg.runs times untraced, each time with
// another seed, and once traced; prints every metric by name; and
// reports each end-to-end metric's quartiles and spread against its
// bound. It fails if any run failed its correctness gate or if runs of
// one seed disagree on a unit both completed.
func runMany(ctx context.Context, sp *spec, cfg manyConfig) error {
	names := workloadNames()
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	var rep report
	var bad []string
	for _, name := range names {
		first := map[int64]*record{} // the first run of each seed
		note := func(rec *record) {
			rep.Records = append(rep.Records, *rec)
			h := rec.Header
			if !rec.Result.Correct {
				bad = append(bad, fmt.Sprintf("%s seed %d trace %d: failed %d of %d: %v", name, h.Seed, h.Trace, rec.Result.Failed, rec.Result.Attempted, rec.Problems))
			}
			if f, ok := first[h.Seed]; !ok {
				first[h.Seed] = rec
			} else if stream, unit, differ := firstUnitDiff(f.Units, rec.Units); differ {
				bad = append(bad, fmt.Sprintf("%s seed %d: runs differ at unit %d of %s", name, h.Seed, unit, stream))
			}
		}
		for k := 0; k < cfg.runs; k++ {
			seed := cfg.seed + int64(k)*cfg.seedStep
			rec, err := child(ctx, cfg, name, seed, 0)
			if err != nil {
				return err
			}
			note(rec)
			fmt.Printf("%-22s seed %-6d", name, seed)
			for _, m := range sp.EndToEnd {
				fmt.Printf("  %s=%.5g", m.Name, rec.Result.Metrics[m.Name].Value)
			}
			fmt.Printf("  n=%.0f digest=%s\n", rec.Extra["op_n"], rec.ResultDigest)
		}
		rec, err := child(ctx, cfg, name, cfg.seed, 1)
		if err != nil {
			return err
		}
		note(rec)
		fmt.Printf("%s seed %d, traced:\n", name, cfg.seed)
		for _, m := range sp.PerLayer {
			fmt.Printf("  %-34s %14.6g %s\n", m.Name, rec.Result.Metrics[m.Name].Value, m.Unit)
		}
		for _, f := range rec.Findings {
			fmt.Printf("  finding: %s\n", f)
		}
	}
	rep.Rows = summarize(sp, rep.Records)
	fmt.Printf("\n%-22s %-14s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, r := range rep.Rows {
		flag := ""
		if r.Unresolved {
			flag = "  UNRESOLVED: spread exceeds bound"
		}
		fmt.Printf("%-22s %-14s %12.5g %12.5g %12.5g %7.1f%% %5.0f%%%s\n", r.Workload, r.Metric, r.Q1, r.Median, r.Q3, 100*r.Spread, 100*r.Bound, flag)
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d problems:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// summarize computes the per-(workload, metric) rows over the untraced
// records.
func summarize(sp *spec, records []record) []row {
	var rows []row
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			r := row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
			for _, rec := range records {
				if v, ok := rec.Result.Metrics[m.Name]; ok && rec.Header.Workload == w.Name && rec.Header.Trace == 0 {
					r.Values = append(r.Values, v.Value)
				}
			}
			if len(r.Values) == 0 {
				continue
			}
			r.Q1, r.Median, r.Q3 = quartiles(r.Values)
			r.Spread = ratio(r.Q3-r.Q1, r.Median)
			// The acceptance rule exempts set-up time's spread: only
			// its medians are compared.
			r.Unresolved = r.Spread > r.Bound && m.Name != "setup_s"
			rows = append(rows, r)
		}
	}
	return rows
}

// normalised names the end-to-end metrics that are scaled by the
// reference kernel's time.
var normalised = map[string]bool{"setup_s": true, "ops_per_s_norm": true, "cpu_ms_per_op_norm": true}

// refTolerance is how far the reference kernel's median time, or its
// coupling to the workload, may differ between two reports before
// -compare refuses to resolve the normalised metrics.
const refTolerance = 0.05

// extraMedian is the median of record.Extra[key] over a workload's
// untraced runs.
func extraMedian(records []record, workload, key string) float64 {
	var v []float64
	for _, rec := range records {
		if rec.Header.Workload == workload && rec.Header.Trace == 0 {
			v = append(v, rec.Extra[key])
		}
	}
	_, m, _ := quartiles(v)
	return m
}

// compareReports sets report b (the change) against report a (the
// parent): per (workload, end-to-end metric) the two medians, how much
// worse b is as a share of a's median, and whether that is inside the
// bound. A pair whose spread in a exceeds the bound is unresolved, not
// unchanged. Runs of one seed present in both reports must agree, bit
// for bit, on every unit both completed — utilities, steps, wire
// FlowMods and install sequences are all in a unit's digest — so a
// behaviour change shows as one, whatever the timings say.
func compareReports(sp *spec, pathA, pathB string) error {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	rowsB := map[string]row{}
	for _, r := range summarize(sp, b.Records) {
		rowsB[r.Workload+"/"+r.Metric] = r
	}
	// The reference every normalised time was divided by must itself
	// be the same on both sides, and so must what reaches it from the
	// program under test (calibrator): a workload where either moved
	// can not have its normalised metrics resolved.
	refMoved := map[string]string{}
	for _, w := range sp.Workloads {
		for _, k := range []string{"ref_ms", "ref_coupling"} {
			ma, mb := extraMedian(a.Records, w.Name, k), extraMedian(b.Records, w.Name, k)
			if moved := ratio(mb-ma, ma); math.Abs(moved) > refTolerance {
				refMoved[w.Name] = fmt.Sprintf("UNRESOLVED: %s moved %+.1f%% (%.4g to %.4g)", k, 100*moved, ma, mb)
			}
		}
	}
	regressed := 0
	fmt.Printf("%-22s %-14s %12s %12s %8s %6s\n", "workload", "metric", "a median", "b median", "worse", "bound")
	for _, ra := range summarize(sp, a.Records) {
		rb, ok := rowsB[ra.Workload+"/"+ra.Metric]
		if !ok {
			continue
		}
		worse := ratio(rb.Median-ra.Median, ra.Median)
		if ra.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		switch {
		case normalised[ra.Metric] && refMoved[ra.Workload] != "":
			verdict = refMoved[ra.Workload]
		case ra.Unresolved || rb.Unresolved:
			verdict = "UNRESOLVED: spread exceeds bound"
		case worse > ra.Bound:
			verdict = "REGRESSED"
			regressed++
		}
		fmt.Printf("%-22s %-14s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n", ra.Workload, ra.Metric, ra.Median, rb.Median, 100*worse, 100*ra.Bound, verdict)
	}
	type key struct {
		workload string
		seed     int64
	}
	units := map[key]map[string]string{}
	for _, rec := range a.Records {
		units[key{rec.Header.Workload, rec.Header.Seed}] = rec.Units
	}
	differ := 0
	for _, rec := range b.Records {
		k := key{rec.Header.Workload, rec.Header.Seed}
		if stream, unit, bad := firstUnitDiff(units[k], rec.Units); bad {
			fmt.Printf("%s seed %d: results differ at unit %d of %s\n", k.workload, k.seed, unit, stream)
			differ++
			delete(units, k) // report a seed once
		}
	}
	if regressed > 0 || differ > 0 {
		return fmt.Errorf("%d metrics regressed beyond their bound, %d runs differ in their results", regressed, differ)
	}
	return nil
}
