// Command fubar-bench regenerates every table and figure of the FUBAR
// paper's evaluation (§3) on the HE-31 substitute topology.
//
// Usage:
//
//	fubar-bench -exp all            # everything (several minutes)
//	fubar-bench -exp fig3           # one experiment
//	fubar-bench -exp fig7 -runs 100 # repeatability with a custom run count
//
// Each experiment prints the paper-figure analogue as ASCII tables/charts
// plus its headline numbers. Per-layer performance numbers are not this
// command's: benchmark/ measures them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/core"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/pathgen"
	"fubar/internal/report"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
	"fubar/internal/verify"
)

// benchCtx is the run's root context, cancelled by SIGINT/SIGTERM so
// interrupted experiments stop at the next candidate batch and the
// binary exits cleanly instead of dying mid-epoch.
var benchCtx = context.Background()

// benchFlags holds the parsed flags the experiments read, plus the
// optimizer options derived from them.
type benchFlags struct {
	seed     int64
	runs     int
	csv      bool
	opts     core.Options
	soakN    int
	soakOut  string
	soakBase string
}

// experiments is every -exp name, in the order -exp all runs them.
// An explicit experiment writes a record file in the working directory,
// which a figure-reproduction run never asked for, so "all" leaves it out.
var experiments = []struct {
	name, title string
	explicit    bool
	run         func(f *benchFlags) error
}{
	{"fig1", "fig1+2: utility function shapes", false, func(*benchFlags) error { return fig12() }},
	{"fig3", "fig3: provisioned run (100 Mbps)", false, func(f *benchFlags) error {
		return timeSeriesExperiment(experiment.Provisioned(f.seed), f.opts, f.csv)
	}},
	{"fig4", "fig4: underprovisioned run (75 Mbps)", false, func(f *benchFlags) error {
		return timeSeriesExperiment(experiment.Underprovisioned(f.seed), f.opts, f.csv)
	}},
	{"fig5", "fig5: underprovisioned, large flows prioritized", false, func(f *benchFlags) error {
		return timeSeriesExperiment(experiment.Prioritized(f.seed), f.opts, f.csv)
	}},
	{"fig6", "fig6: delay CDF, relaxed delay", false, func(f *benchFlags) error { return fig6(f.seed, f.opts) }},
	{"fig7", "fig7: repeatability CDF", false, func(f *benchFlags) error { return fig7(f.seed, f.runs, f.opts) }},
	{"runtime", "runtime: running-time table", false, func(f *benchFlags) error { return runtimeTable(f.seed, f.opts) }},
	{"ablation", "ablation: path trio and escalation", false, func(f *benchFlags) error { return ablation(f.seed, f.opts) }},
	{"anneal", "anneal: FUBAR vs naive simulated annealing (§2.5)", false, func(f *benchFlags) error { return annealCompare(f.seed) }},
	{"validate", "validate: analytic model vs dynamic AIMD simulation (§2.3)", false, func(f *benchFlags) error { return validate(f.seed) }},
	{"queues", "queues: simulated drop-tail queues, SP vs FUBAR (§3)", false, func(f *benchFlags) error { return queues(f.seed) }},
	{"mpls", "mpls: allocation as reserved MPLS-TE tunnels (§5)", false, func(f *benchFlags) error { return mplsSync(f.seed) }},
	{"failover", "failover: link failure and warm-start recovery", false, func(f *benchFlags) error { return failover(f.seed) }},
	{"soak", "soak: million-epoch streaming replay, O(1) memory", true, func(f *benchFlags) error {
		return soakBench(f.seed, f.soakN, f.soakOut, f.soakBase, f.opts.Telemetry)
	}},
}

// experimentNames lists the -exp names that are, or are not, explicit-only.
func experimentNames(explicit bool) []string {
	var names []string
	for _, e := range experiments {
		if e.explicit == explicit {
			names = append(names, e.name)
		}
	}
	return names
}

// selectExperiments resolves an -exp value to indices into experiments:
// "all" is every non-explicit one, anything else must be a listed name.
func selectExperiments(exp string) ([]int, error) {
	var picked []int
	for i, e := range experiments {
		if e.name == exp || (exp == "all" && !e.explicit) {
			picked = append(picked, i)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown experiment %q: want all, %s, or explicitly %s", exp,
			strings.Join(experimentNames(false), ", "), strings.Join(experimentNames(true), ", "))
	}
	return picked, nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main returning its exit code — 0 done, 1 an experiment or set-up
// failed, 2 bad flags or -exp name, 130 interrupted — so that every defer
// runs on every way out: a failed or interrupted run still flushes its
// profiles.
func run(args []string) int {
	var bf benchFlags
	fs := flag.NewFlagSet("fubar-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(experimentNames(false), "|")+"|all, or "+
		strings.Join(experimentNames(true), "|")+" (explicit only; it writes -soak-out)")
	fs.Int64Var(&bf.seed, "seed", 1, "base random seed")
	fs.IntVar(&bf.runs, "runs", 100, "number of runs for fig7")
	fs.BoolVar(&bf.csv, "csv", false, "emit CSV after each chart")
	fs.IntVar(&bf.opts.Workers, "workers", 0, "parallel candidate evaluators per step (0 = GOMAXPROCS)")
	fs.IntVar(&bf.soakN, "soak-epochs", 1_000_000, "plain-replay epoch count for -exp soak (the closed-loop leg runs a tenth of it)")
	fs.StringVar(&bf.soakOut, "soak-out", "BENCH_soak.json", "output file for the soak record")
	fs.StringVar(&bf.soakBase, "soak-baseline", "", "baseline soak record to diff against: the run fails on any deterministic-envelope regression (trajectory divergence, heap-bound or wire-ledger flags)")
	listen := fs.String("listen", "", "serve live telemetry on this address: Prometheus /metrics, /debug/pprof/, JSONL /trace")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	picked, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fubar-bench:", err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	benchCtx = ctx

	if *listen != "" {
		tel := telemetry.New()
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "listen:", err)
			return 1
		}
		srv := telemetry.NewServer(telemetry.Handler(tel))
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (metrics, trace, debug/pprof)\n", ln.Addr())
		go srv.Serve(ln)
		defer srv.Close()
		bf.opts.Telemetry = tel
	}
	for _, i := range picked {
		e := experiments[i]
		fmt.Printf("\n================ %s ================\n", e.title)
		start := time.Now()
		err := e.run(&bf)
		// A cancelled context is terminal whatever the experiment
		// returned: optimizer-level cancellation surfaces as truncated
		// (StopCancelled) solutions with a nil error, and any figures or
		// records derived from them are garbage — never continue to the
		// next experiment or exit 0.
		if benchCtx.Err() != nil || errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", e.title)
			return 130
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.title, err)
			return 1
		}
		fmt.Printf("[%s done in %v]\n", e.title, time.Since(start).Truncate(time.Millisecond))
	}
	return 0
}

// failover runs a link-failure episode: optimize, kill the hottest
// link, measure the stale allocation, re-optimize around the failure
// warm-started from the installed state.
func failover(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	res, err := experiment.Failover(benchCtx, topo, mat, core.Options{})
	if err != nil {
		return err
	}
	t := report.NewTable("link failure episode", "state", "utility", "notes")
	t.AddRow("healthy (optimized)", fmt.Sprintf("%.4f", res.Healthy), "")
	t.AddRow("failed, stale routing", fmt.Sprintf("%.4f", res.Degraded),
		fmt.Sprintf("link %s down, crossing flows black-holed", res.FailedLinkName))
	t.AddRow("repaired warm start", fmt.Sprintf("%.4f", res.Stale),
		fmt.Sprintf("%d stranded flows rehomed", res.RepairedFlows))
	t.AddRow("re-optimized (warm start)", fmt.Sprintf("%.4f", res.Recovered),
		fmt.Sprintf("%d moves in %v", res.ReoptimizeSteps, res.ReoptimizeTime.Truncate(time.Millisecond)))
	return t.Render(os.Stdout)
}

// benchInstance is the shared mid-size congested instance for the
// extension experiments: large enough to be interesting, small enough
// that the dynamic simulation stays fast.
func benchInstance(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed + 32)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// annealCompare reproduces the §2.5 comparison: guided escalation vs a
// naive annealer on the same instance and traffic model.
func annealCompare(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	t := report.NewTable("FUBAR vs naive simulated annealing", "optimizer", "utility", "model evals", "elapsed")
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	start := time.Now()
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	t.AddRow("shortest path (start)", fmt.Sprintf("%.4f", sol.InitialUtility), 1, "-")
	t.AddRow("FUBAR", fmt.Sprintf("%.4f", sol.Utility), sol.Steps, time.Since(start).Truncate(time.Millisecond))
	for _, iters := range []int{3000, 30000, 150000} {
		start = time.Now()
		sa, err := anneal.Run(benchCtx, model, anneal.Options{Seed: seed, MaxIterations: iters})
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("naive SA %dk iters", iters/1000),
			fmt.Sprintf("%.4f", sa.Utility), sa.Evaluations, time.Since(start).Truncate(time.Millisecond))
	}
	return t.Render(os.Stdout)
}

// validate compares the analytic model's bundle rates with the dynamic
// simulation's time averages, for both shortest-path and FUBAR routing,
// once internal/verify has certified each allocation and its rates.
func validate(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	t := report.NewTable("analytic model vs AIMD simulation", "allocation", "bundles", "correlation", "mean rel err", "max rel err")
	eval := model.NewEval()
	addCase := func(name string, bundles []flowmodel.Bundle) error {
		res := eval.Evaluate(bundles)
		if err := verify.Allocation(topo, mat, bundles, nil); err != nil {
			return fmt.Errorf("validate: %s: %w", name, err)
		}
		if err := verify.MaxMin(topo, mat, bundles, res.BundleRate, 1e-9); err != nil {
			return fmt.Errorf("validate: %s: %w", name, err)
		}
		simRes, err := dsim.Simulate(topo, mat, bundles, seed)
		if err != nil {
			return err
		}
		val, err := dsim.Validate(bundles, res, simRes)
		if err != nil {
			return err
		}
		t.AddRow(name, val.Bundles, fmt.Sprintf("%.3f", val.Correlation),
			fmt.Sprintf("%.1f%%", 100*val.MeanRelErr), fmt.Sprintf("%.1f%%", 100*val.MaxRelErr))
		return nil
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		return err
	}
	if err := addCase("shortest paths", sp.Bundles); err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	if err := addCase("FUBAR", sol.Bundles); err != nil {
		return err
	}
	return t.Render(os.Stdout)
}

// queues re-runs the §3 queue-avoidance claim on simulated drop-tail
// queues.
func queues(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	t := report.NewTable("simulated queueing (AIMD + drop-tail)", "allocation", "mean queue", "worst queue", "sim utility")
	for _, c := range []struct {
		name    string
		bundles []flowmodel.Bundle
	}{{"shortest paths", sp.Bundles}, {"FUBAR", sol.Bundles}} {
		simRes, err := dsim.Simulate(topo, mat, c.bundles, seed)
		if err != nil {
			return err
		}
		t.AddRow(c.name, fmt.Sprintf("%.3f ms", simRes.MeanQueueMs),
			fmt.Sprintf("%.2f ms", simRes.MaxQueueMs), fmt.Sprintf("%.4f", simRes.NetworkUtility))
	}
	return t.Render(os.Stdout)
}

// mplsSync installs the allocation as reserved tunnels and reports the
// signaling outcome.
func mplsSync(seed int64) error {
	topo, mat, err := benchInstance(seed)
	if err != nil {
		return err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return err
	}
	sol, err := core.Run(benchCtx, model, core.Options{})
	if err != nil {
		return err
	}
	db, err := mpls.NewDB(topo)
	if err != nil {
		return err
	}
	stats, err := mpls.SyncSolution(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
	if err != nil {
		return err
	}
	var maxU, sumU float64
	used := 0
	for _, u := range db.Utilization() {
		if u <= 0 {
			continue
		}
		used++
		sumU += u
		if u > maxU {
			maxU = u
		}
	}
	t := report.NewTable("MPLS-TE tunnel sync", "metric", "value")
	t.AddRow("tunnels admitted", stats.Admitted)
	t.AddRow("tunnels failed", len(stats.Failed))
	t.AddRow("links reserved", used)
	t.AddRow("mean reservation", fmt.Sprintf("%.1f%%", 100*sumU/float64(used)))
	t.AddRow("max reservation", fmt.Sprintf("%.1f%%", 100*maxU))
	t.AddRow("allocation utility", fmt.Sprintf("%.4f", sol.Utility))
	return t.Render(os.Stdout)
}

// fig12 prints the Figure 1 and 2 utility component curves.
func fig12() error {
	for _, fn := range []utility.Function{utility.RealTime(), utility.Bulk(), utility.LargeFile(1000 * unit.Kbps)} {
		t := report.NewTable(fmt.Sprintf("%s bandwidth component", fn.Name()), "kbps", "utility")
		peak := float64(fn.PeakBandwidth())
		for i := 0; i <= 10; i++ {
			x := peak * float64(i) / 5 // up to 2x peak
			t.AddRow(fmt.Sprintf("%.0f", x), fn.EvalBandwidth(unit.Bandwidth(x)))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		d := report.NewTable(fmt.Sprintf("%s delay component", fn.Name()), "ms", "utility")
		for _, ms := range []float64{0, 25, 50, 75, 100, 150, 200, 500, 1000, 2000, 3000} {
			d.AddRow(fmt.Sprintf("%.0f", ms), fn.EvalDelay(unit.Delay(ms)))
		}
		if err := d.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// timeSeriesExperiment renders the three panels of Figs 3-5.
func timeSeriesExperiment(cfg experiment.Config, opts core.Options, csv bool) error {
	cfg.Options = opts
	r, err := experiment.Run(benchCtx, cfg)
	if err != nil {
		return err
	}
	printRunSummary(r)

	chart := report.NewLineChart("average utility over time", 72, 14)
	chart.AddSeries(r.Utility)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("  reference: upper bound = %.4f, shortest path = %.4f\n", r.UpperBound, r.ShortestPath)

	lc := report.NewLineChart("utility of large flows", 72, 10)
	lc.AddSeries(r.LargeUtility)
	if err := lc.Render(os.Stdout); err != nil {
		return err
	}

	uc := report.NewLineChart("link utilization", 72, 12)
	uc.AddSeries(r.ActualUtilization)
	uc.AddSeries(r.DemandedUtilization)
	if err := uc.Render(os.Stdout); err != nil {
		return err
	}
	if csv {
		if err := report.SeriesCSV(os.Stdout, 60, r.Utility, r.LargeUtility, r.ActualUtilization, r.DemandedUtilization); err != nil {
			return err
		}
	}
	return nil
}

func printRunSummary(r *experiment.RunResult) {
	sol := r.Solution
	fmt.Printf("topology: %s\n", r.Topology.Summary())
	fmt.Printf("traffic:  %s\n", r.Matrix.Summary())
	fmt.Printf("result:   utility %.4f (shortest-path %.4f, upper bound %.4f), +%.1f%% over shortest path\n",
		sol.Utility, r.ShortestPath, r.UpperBound, 100*(sol.Utility-r.ShortestPath)/r.ShortestPath)
	fmt.Printf("          %d steps, %d escalations, %.1f paths/aggregate, stop=%s, elapsed=%v\n",
		sol.Steps, sol.Escalations, sol.PathsPerAggregate, sol.Stop, sol.Elapsed.Truncate(time.Millisecond))
	last, _ := r.ActualUtilization.Last()
	lastD, _ := r.DemandedUtilization.Last()
	fmt.Printf("          final utilization: actual %.3f, demanded %.3f (gap %.3f)\n",
		last.V, lastD.V, lastD.V-last.V)
}

// fig6 runs underprovisioned base vs relaxed-delay and prints both delay
// CDFs.
func fig6(seed int64, opts core.Options) error {
	baseCfg := experiment.Underprovisioned(seed)
	baseCfg.Options = opts
	base, err := experiment.Run(benchCtx, baseCfg)
	if err != nil {
		return err
	}
	relCfg := experiment.RelaxedDelay(seed)
	relCfg.Options = opts
	rel, err := experiment.Run(benchCtx, relCfg)
	if err != nil {
		return err
	}
	cdfBase := metrics.NewCDF(base.FlowDelayMs)
	cdfRel := metrics.NewCDF(rel.FlowDelayMs)
	chart := report.NewCDFChart("per-flow path RTT", "ms", 72, 14)
	chart.AddCDF("underprovisioned", cdfBase)
	chart.AddCDF("underprovisioned, relaxed delay", cdfRel)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	t := report.NewTable("delay quantiles (ms)", "case", "p50", "p90", "p99", "max", "utility")
	t.AddRow("original", cdfBase.Quantile(0.5), cdfBase.Quantile(0.9), cdfBase.Quantile(0.99), cdfBase.Quantile(1), base.Solution.Utility)
	t.AddRow("relaxed", cdfRel.Quantile(0.5), cdfRel.Quantile(0.9), cdfRel.Quantile(0.99), cdfRel.Quantile(1), rel.Solution.Utility)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("median delay shift: %+.1f ms, p99 shift: %+.1f ms\n",
		cdfRel.Quantile(0.5)-cdfBase.Quantile(0.5), cdfRel.Quantile(0.99)-cdfBase.Quantile(0.99))
	return nil
}

// fig7 runs the repeatability experiment.
func fig7(seed int64, runs int, opts core.Options) error {
	cfg := experiment.Provisioned(seed)
	cfg.Options = opts
	r, err := experiment.Repeatability(benchCtx, cfg, runs)
	if err != nil {
		return err
	}
	chart := report.NewCDFChart(fmt.Sprintf("final utility across %d runs", r.Runs), "utility", 72, 14)
	chart.AddCDF("utility (FUBAR)", r.Fubar)
	chart.AddCDF("shortest-path utility", r.ShortestPath)
	chart.AddCDF("maximal utility", r.UpperBound)
	if err := chart.Render(os.Stdout); err != nil {
		return err
	}
	t := report.NewTable("summary", "series", "mean", "p10", "p50", "p90")
	for _, row := range []struct {
		name string
		cdf  *metrics.CDF
	}{
		{"FUBAR", r.Fubar}, {"shortest path", r.ShortestPath}, {"upper bound", r.UpperBound},
	} {
		s := metrics.Summarize(row.cdf.Values())
		t.AddRow(row.name, s.Mean, s.P10, s.P50, s.P90)
	}
	return t.Render(os.Stdout)
}

func runtimeTable(seed int64, opts core.Options) error {
	rows, err := experiment.RuntimeTable(benchCtx, seed, opts)
	if err != nil {
		return err
	}
	t := report.NewTable("running time (§3)", "case", "elapsed", "steps", "utility", "paths/agg", "stop")
	for _, r := range rows {
		t.AddRow(r.Name, r.Elapsed, r.Steps, r.Utility, r.PathsPer, r.Stop.String())
	}
	return t.Render(os.Stdout)
}

// ablation compares path-choice modes and escalation on the provisioned
// case (the §2.4 "we tried different approaches" claim).
func ablation(seed int64, opts core.Options) error {
	t := report.NewTable("ablations (provisioned case)", "variant", "utility", "steps", "elapsed", "stop")
	variants := []struct {
		name string
		mod  func(*core.Options)
	}{
		{"full trio (paper)", func(o *core.Options) {}},
		{"global only", func(o *core.Options) { o.AltMode = core.AltGlobalOnly }},
		{"local only", func(o *core.Options) { o.AltMode = core.AltLocalOnly }},
		{"link-local only", func(o *core.Options) { o.AltMode = core.AltLinkLocalOnly }},
		{"no escalation", func(o *core.Options) { o.DisableEscalation = true }},
	}
	for _, v := range variants {
		cfg := experiment.Provisioned(seed)
		cfg.Options = opts
		v.mod(&cfg.Options)
		r, err := experiment.Run(benchCtx, cfg)
		if err != nil {
			return err
		}
		t.AddRow(v.name, r.Solution.Utility, r.Solution.Steps,
			r.Solution.Elapsed, r.Solution.Stop.String())
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(`
The paper picks the global/local/link-local trio as "the best tradeoff
between speed and solution quality"; the rows above quantify that choice
on this reproduction.`))
	return nil
}
