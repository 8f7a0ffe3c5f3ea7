package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output: exactly these
// keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header says what produced a record.
type header struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Workers    int     `json:"workers"`
	Lanes      int     `json:"lanes"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Sizes      string  `json:"sizes"`
}

// record is everything one run measured: the contract's result plus the
// header, the result digest (the first unit, for people), the digests
// of every completed unit (pass.units, for -runs and -compare) and the
// numbers that are not contract metrics (sample counts, medians, counts).
type record struct {
	Header       header             `json:"header"`
	Result       result             `json:"result"`
	ResultDigest string             `json:"result_digest"`
	Units        map[string]string  `json:"unit_digests"`
	Extra        map[string]float64 `json:"extra"`
	Problems     []string           `json:"problems,omitempty"`
	Findings     []string           `json:"findings,omitempty"`
}

// runConfig is one run's inputs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	sz       sizes
	spec     *spec
}

// gitCommit asks git for the commit of the checkout the program runs
// in; a checkout that is not a repository has none (and git is not left
// to search the directories above it).
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runOne runs one workload once, untraced (cfg.trace 0: the end-to-end
// metrics) or as an untraced half followed by a traced half over the
// same operations (cfg.trace 1: the per-layer metrics), and checks the
// outputs either way.
func runOne(ctx context.Context, cfg runConfig) (_ *record, _ []span, err error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	rec := &record{
		Header: header{
			GoVersion: runtime.Version(), Commit: gitCommit(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload: w.name, Seed: cfg.seed,
			Seconds: cfg.seconds, Trace: cfg.trace, Sizes: fmt.Sprintf("%+v", cfg.sz),
		},
		Extra: make(map[string]float64),
	}
	if err := warmHeap(ctx); err != nil {
		return nil, nil, err
	}
	e := env{seed: cfg.seed, sz: cfg.sz, cal: newCalibrator()}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace != 0 {
		window /= 4 // three more passes repeat this one's operations (tracedHalf)
	}

	// The untraced pass: the product as a user runs it.
	inst, setupS, err := timedSetups(w, e)
	if err != nil {
		return nil, nil, err
	}
	defer func() { err = errors.Join(err, inst.close()) }()
	rec.Header.Workers = sessionWorkers
	cpu0 := cpuSeconds()
	_, heap0 := heapCounters()
	a, err := inst.run(ctx, limit{d: window})
	cpu := cpuSeconds() - cpu0
	_, heap := heapCounters()
	rss := maxRSSMiB()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Header.Lanes = len(a.laneOps)
	altWall, err := inst.verify(ctx, a)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: verify: %w", w.name, err)
	}
	values := map[string]float64{}
	var spans []span
	if cfg.trace == 0 {
		// Every end-to-end time is scaled to the reference kernel's
		// nominal speed: see calibrator.
		values["setup_s"] = e.cal.norm(setupS)
		values["ops_per_s_norm"] = ratio(float64(a.ops()), e.cal.norm(a.wall.Seconds()))
		values["cpu_ms_per_op_norm"] = e.cal.norm(ratio(cpu*1000, float64(a.ops())))
		values["alloc_kb_per_op"] = ratio(float64(heap-heap0)/1024, float64(a.ops()))
		values["utility_mean"] = mean(a.utilities)
		values["max_rss_mb"] = rss
	} else {
		values, spans, err = tracedHalf(ctx, w, e, inst, a, altWall, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
	}

	rec.Extra["ref_ms"] = e.cal.refMs()
	rec.Extra["ref_n"] = float64(len(e.cal.samples))
	rec.Extra["ref_coupling"] = e.cal.coupling()
	rec.Extra["op_n"] = float64(a.ops())
	rec.Extra["op_ms_p50"] = median(a.latMs)
	rec.Extra["op_ms_p90"] = percentile(a.latMs, 0.9)
	rec.Extra["ops_per_s"] = ratio(float64(a.ops()), a.wall.Seconds())
	rec.Extra["cpu_s"] = cpu
	rec.Extra["setup_s_raw"] = setupS
	rec.Extra["wall_s"] = a.wall.Seconds()
	rec.Extra["epochs"] = float64(a.epochs)
	rec.Extra["steps"] = float64(a.steps)
	rec.Extra["wire_flowmods"] = float64(a.wireFlowMods)
	rec.Extra["optimize_share"] = ratio(a.optimizeWall.Seconds(), a.wall.Seconds()*float64(len(a.laneOps)))
	for k, v := range a.kinds {
		rec.Extra[k+"_ms_p50"] = median(v)
		rec.Extra[k+"_ms_p90"] = percentile(v, 0.9)
		rec.Extra[k+"_n"] = float64(len(v))
	}
	rec.ResultDigest = digest(a.unitResults)
	rec.Units = a.units
	rec.Problems = a.problems

	list := cfg.spec.EndToEnd
	if cfg.trace != 0 {
		list = cfg.spec.PerLayer
	}
	rec.Result = result{Attempted: a.attempted, Failed: a.failed, Metrics: make(map[string]metric, len(list))}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: BENCHMARK.json names metric %q, which this program does not measure", w.name, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s: metric %q is %v", w.name, m.Name, v)
		}
		rec.Result.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		delete(values, m.Name)
	}
	if len(values) > 0 {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, nil, fmt.Errorf("%s: measured metrics BENCHMARK.json does not name: %s", w.name, strings.Join(extra, ", "))
	}
	rec.Result.Correct = a.failed == 0 && a.attempted > 0
	return rec, spans, nil
}

// tracedHalf extends the untraced pass a into the ABBA design the
// per-layer metrics come from: a traced pass, a second traced pass and a
// second untraced pass follow, each on a fresh set-up and each repeating
// a's operations exactly. A process speeds up as its heap grows, so a
// plain untraced-then-traced pair reads tracing as a gain; ABBA cancels
// that drift to first order. All four passes must agree bit for bit:
// tracing may cost time, never change an answer. On return a is the two
// untraced passes pooled.
func tracedHalf(ctx context.Context, w workload, e env, untraced instance, a *pass, altWall time.Duration, rec *record) (map[string]float64, []span, error) {
	te := e
	te.rec = newRecorder()
	b := &pass{}
	var allocs uint64
	var waits int64
	first, counts := a.results, slices.Clone(a.laneOps)
	for i, pe := range []env{te, te, e} {
		inst, err := w.setup(pe)
		if err != nil {
			return nil, nil, err
		}
		m0, _ := heapCounters()
		p, err := inst.run(ctx, limit{counts: counts})
		m1, _ := heapCounters()
		if d, ok := inst.(*daemonInstance); ok && pe.rec != nil {
			waits += d.workerWaits()
		}
		if err := errors.Join(err, inst.close()); err != nil {
			return nil, nil, err
		}
		if len(p.results) != len(first) {
			a.fail("a repeat pass produced %d results, the first pass %d", len(p.results), len(first))
		}
		for op := range min(len(p.results), len(first)) {
			if p.results[op] != first[op] {
				a.fail("repeat pass (traced: %t) differs from the first at operation %d:\n repeat %s\n first  %s", pe.rec != nil, op, p.results[op], first[op])
				break
			}
		}
		rec.Extra[fmt.Sprintf("repeat%d_wall_s", i+1)] = p.wall.Seconds()
		if pe.rec != nil {
			allocs += m1 - m0
			b.merge(p)
		} else {
			a.merge(p)
		}
	}

	spans := te.rec.snapshot()
	values := spanMetrics(spans, a, b)
	a.attempted += b.attempted
	a.failed += b.failed
	a.problems = append(a.problems, b.problems...)
	values["core.allocs_per_candidate"] = ratio(float64(allocs), float64(b.candidates))
	values["daemon.worker_waits"] = float64(waits)
	values["calib.ref_ms"] = e.cal.refMs()
	values["calib.coupling"] = e.cal.coupling()
	values["core.workers1_ratio"] = ratio(a.unitWall.Seconds(), altWall.Seconds())
	topo, mat := untraced.layerInputs()
	direct, err := layerMetrics(topo, mat, a.records, e.sz, &rec.Findings)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range direct {
		values[k] = v
	}
	if c := values["trace.covered_frac"]; c < 0.9 {
		rec.Findings = append(rec.Findings, fmt.Sprintf("trace.covered_frac %.3f < 0.9: the harness spends %.1f%% of the pass between operations", c, 100*(1-c)))
	}
	rec.Findings = append(rec.Findings, ladder(w.name, values, mat.NumAggregates())...)
	rec.Extra["traced_wall_s"] = b.wall.Seconds()
	var calibrateMs float64
	for _, d := range durationsMs(spans, "bench.calibrate") {
		calibrateMs += d
	}
	rec.Extra["calibrate_frac"] = ratio(calibrateMs, 1000*b.wall.Seconds()*float64(len(b.laneOps)))
	return values, spans, nil
}

// spanMetrics derives the span-based per-layer metrics: a is the
// untraced pass (client-side latencies), b the traced one (spans).
// A layer the workload's path does not cross reports 0.
func spanMetrics(spans []span, a, b *pass) map[string]float64 {
	v := make(map[string]float64)
	v["client.op_ms_p50"] = median(a.latMs)
	v["client.op_ms_p90"] = percentile(a.latMs, 0.9)
	v["client.op_n"] = float64(len(a.latMs))

	steps := durationsMs(spans, "core.step")
	v["core.init_ms"] = median(durationsMs(spans, "core.init"))
	v["core.final_ms"] = median(durationsMs(spans, "core.final"))
	v["core.step_ms_p50"] = median(steps)
	v["core.step_ms_p99"] = percentile(steps, 0.99)
	v["core.steps"] = float64(len(steps))
	v["core.candidates"] = float64(b.candidates)
	var stepMs float64
	for _, s := range steps {
		stepMs += s
	}
	v["core.candidate_us"] = ratio(stepMs*1000, float64(b.candidates))

	epochs := durationsMs(spans, "scenario.epoch")
	var epochMs float64
	for _, s := range epochs {
		epochMs += s
	}
	v["scenario.epochs"] = float64(len(epochs))
	v["scenario.pre_ms_p50"] = median(durationsMs(spans, "epoch.pre"))
	v["scenario.post_ms_p50"] = median(durationsMs(spans, "epoch.post"))
	v["scenario.optimize_share"] = 0
	v["scenario.wire_flowmods_per_epoch"] = ratio(float64(b.wireFlowMods), float64(b.epochs))
	if len(epochs) > 0 {
		v["scenario.optimize_share"] = ratio(ms(b.optimizeWall), epochMs)
	}

	// daemon.handler ⊃ tenant.call and client.request ⊃ daemon.handler:
	// the parent's self time is what the parent layer itself cost.
	self := selfTimes(spans)
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var overhead, transport []float64
	for i, s := range spans {
		switch {
		case s.Name == "daemon.handler" && hasChild[i]:
			overhead = append(overhead, ms(self[i]))
		case s.Name == "client.request" && hasChild[i]:
			transport = append(transport, ms(self[i]))
		}
	}
	v["daemon.handler_overhead_ms_p50"] = median(overhead)
	v["daemon.transport_ms_p50"] = median(transport)
	v["daemon.scrape_ms_p50"] = median(a.kinds["scrape"])
	v["daemon.optimize_ms_p50"] = median(a.kinds["optimize"])
	v["daemon.first_epoch_ms_p50"] = median(a.kinds["first_epoch"])
	v["daemon.requests_per_s"] = 0
	v["daemon.stream_epochs_per_s"] = 0
	if len(a.kinds) > 0 {
		v["daemon.requests_per_s"] = ratio(float64(a.attempted), a.wall.Seconds())
		v["daemon.stream_epochs_per_s"] = ratio(float64(a.epochs), a.wall.Seconds())
	}

	v["trace.spans"] = float64(len(spans))
	v["trace.covered_frac"] = coveredFrac(spans)
	v["trace.overhead_frac"] = ratio(b.wall.Seconds(), a.wall.Seconds()) - 1
	return v
}

// ladder sets direct-call costs against the span that encloses them. A
// sum that explains less than 80% of its span, or more than 120%, is a
// finding: some cost on that rung is not attributed to a layer yet.
func ladder(workload string, v map[string]float64, aggregates int) []string {
	type rung struct {
		span  string
		parts map[string]float64 // direct-call metric → calls per span, in ms
	}
	var rungs []rung
	switch workload {
	case "cold-scale-s":
		// Initialisation seeds every aggregate's lowest-delay path, then
		// evaluates the placement and captures its base.
		rungs = append(rungs, rung{"core.init_ms", map[string]float64{
			"pathgen.lowest_delay_us": 1e-3 * float64(aggregates), "flowmodel.evaluate_base_us": 1e-3,
		}})
	case "replay-he-crisis":
		rungs = append(rungs, rung{"scenario.pre_ms_p50", map[string]float64{
			"flowmodel.new_ms": 1, "core.new_ms": 1, "core.repair_warm_start_us": 1e-3,
			"pathgen.lowest_delay_us":    1e-3 * float64(aggregates),
			"flowmodel.evaluate_full_us": 1e-3, "flowmodel.evaluate_base_us": 1e-3,
		}})
	case "closedloop-ring-soak":
		// Two models (true and estimated matrix), repair, the stale
		// evaluation, a simulator, two measured epochs and the estimate.
		rungs = append(rungs, rung{"scenario.pre_ms_p50", map[string]float64{
			"flowmodel.new_ms": 2, "core.new_ms": 1, "core.repair_warm_start_us": 1e-3,
			"pathgen.lowest_delay_us":    1e-3 * float64(aggregates),
			"flowmodel.evaluate_full_us": 1e-3, "flowmodel.evaluate_base_us": 1e-3,
			"sdnsim.run_epoch_us": 2e-3, "measure.observe_us": 2e-3, "measure.matrix_us": 1e-3,
		}})
		rungs = append(rungs, rung{"scenario.post_ms_p50", map[string]float64{
			"mpls.plan_transition_us": 1e-3, "sdnsim.run_epoch_us": 1e-3,
		}})
	}
	var out []string
	for _, r := range rungs {
		var sum float64
		for name, scale := range r.parts {
			sum += v[name] * scale
		}
		if got := v[r.span]; got > 0 && (sum < 0.8*got || sum > 1.2*got) {
			out = append(out, fmt.Sprintf("ladder: direct calls under %s sum to %.3f ms, the span measures %.3f ms (%.0f%%)", r.span, sum, got, 100*sum/got))
		}
	}
	return out
}
