// Command fubar optimizes a traffic matrix over a topology and reports
// the resulting allocation — the library's command-line front end.
//
// Usage:
//
//	fubar -topology net.topo -seed 7            # random §3-style workload
//	fubar -he -capacity 75Mbps -seed 1 -v       # HE-31 underprovisioned
//	fubar -he -large-weight 8                   # prioritize large flows
//	fubar -scenario diurnal -epochs 12          # replay a demand/topology timeline
//	fubar -scenario storm -ctrlplane -budget 1s # drive the control plane end to end
//	fubar -json                                 # machine-readable output
//	                                            # (with -scenario: JSONL epoch stream)
//	fubar -listen :9090                         # live /metrics, /trace, /debug/pprof
//
// Without -topology the HE-31 substitute is used. The traffic matrix is
// always generated from -seed with the paper's class mix.
//
// With -scenario the instance becomes epoch 0 of a canned scenario (see
// fubar.ScenarioNames) and every epoch re-optimizes warm-started from
// the previous allocation through a long-lived fubar.Session; the epoch
// table reports stale vs re-optimized utility, optimizer effort and
// routing churn, streaming epoch by epoch. Adding -ctrlplane runs the
// closed loop instead: simulated switches over a TCP control protocol,
// counter-based matrix estimation, per-epoch deadline budgeting
// (-budget), make-before-break churn pricing, and differential installs
// whose FlowMods are counted wire messages.
//
// SIGINT/SIGTERM cancel the run's context: a single optimization
// publishes its best-so-far solution (stop reason "cancelled"), a
// scenario replay prints the epochs completed so far, and the process
// exits cleanly either way.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fubar"
	"fubar/internal/report"
	"fubar/internal/telemetry"
)

func main() {
	var (
		topoPath    = flag.String("topology", "", "topology file (text format); empty = HE-31 substitute")
		capacity    = flag.String("capacity", "100Mbps", "uniform link capacity override")
		seed        = flag.Int64("seed", 1, "traffic matrix seed")
		largeWeight = flag.Float64("large-weight", 1, "utility weight multiplier for large aggregates")
		delayScale  = flag.Float64("delay-scale", 1, "delay-curve stretch for small aggregates")
		maxPaths    = flag.Int("max-paths", 15, "path-set limit per aggregate")
		workers     = flag.Int("workers", 0, "parallel candidate evaluators per step (0 = GOMAXPROCS)")
		verbose     = flag.Bool("v", false, "trace progress every 100 steps")
		showPaths   = flag.Bool("paths", false, "dump the final allocation's paths")
		jsonOut     = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
		scenName    = flag.String("scenario", "", "replay a canned scenario ("+strings.Join(fubar.ScenarioNames(), "|")+") instead of one optimization")
		epochs      = flag.Int("epochs", 12, "scenario replay epoch count")
		cold        = flag.Bool("cold", false, "disable warm starts in the scenario replay")
		ctrlplane   = flag.Bool("ctrlplane", false, "drive the scenario replay through the SDN control plane (simulated switches over TCP, counted wire FlowMods)")
		budget      = flag.Duration("budget", 5*time.Minute, "wall-clock bound on each optimization: the single run, or every replay epoch's re-optimization, open loop or -ctrlplane (0 = none)")
		replicas    = flag.Int("replicas", 1, "controller replica count for -ctrlplane replays (>=2 lets controller-fail events bite; see -scenario ctrlstorm)")
		lease       = flag.Duration("lease", 0, "switch rule hard-timeout for -ctrlplane replays: an orphaned agent applies -lease-policy after this long without a controller (0 = no lease)")
		leasePolicy = flag.String("lease-policy", "static", "orphaned-agent lease policy: static (keep forwarding on the stale table) or closed (wipe it)")
		listen      = flag.String("listen", "", "serve live telemetry on this address: Prometheus /metrics, /debug/pprof/, JSONL /trace")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := runConfig{
		topoPath: *topoPath, capStr: *capacity, seed: *seed,
		largeWeight: *largeWeight, delayScale: *delayScale,
		maxPaths: *maxPaths, workers: *workers,
		verbose: *verbose, showPaths: *showPaths, jsonOut: *jsonOut,
		scenName: *scenName, epochs: *epochs, cold: *cold,
		ctrlplane: *ctrlplane, budget: *budget, listen: *listen,
		replicas: *replicas, lease: *lease, leasePolicy: *leasePolicy,
	}
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fubar:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	topoPath, capStr        string
	seed                    int64
	largeWeight, delayScale float64
	maxPaths, workers       int
	verbose, showPaths      bool
	jsonOut                 bool
	scenName                string
	epochs                  int
	cold, ctrlplane         bool
	budget                  time.Duration
	replicas                int
	lease                   time.Duration
	leasePolicy             string
	listen                  string
}

func run(ctx context.Context, rc runConfig) error {
	cap, err := fubar.ParseBandwidth(rc.capStr)
	if err != nil {
		return err
	}
	var policy fubar.FailPolicy
	switch rc.leasePolicy {
	case "static":
		policy = fubar.FailStatic
	case "closed":
		policy = fubar.FailClosed
	default:
		return fmt.Errorf("unknown -lease-policy %q (valid: static, closed)", rc.leasePolicy)
	}
	cfg := fubar.ExperimentConfig{
		Capacity:    cap,
		Seed:        rc.seed,
		LargeWeight: rc.largeWeight,
		DelayScale:  rc.delayScale,
	}
	if rc.topoPath != "" {
		f, err := os.Open(rc.topoPath)
		if err != nil {
			return err
		}
		topo, err := fubar.ParseTopology(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Topology = topo
	}

	// Materialize the instance once and hold it in a Session: the model,
	// arenas and warm state persist across everything this invocation
	// runs.
	topo, mat, err := fubar.ExperimentInstance(cfg)
	if err != nil {
		return err
	}
	// Telemetry is always attached (disabled collection would save
	// nothing worth the divergent code path); -listen additionally
	// serves it live.
	tel := fubar.NewTelemetry()
	opts := []fubar.SessionOption{
		fubar.WithOptions(fubar.Options{
			MaxPathsPerAggregate: rc.maxPaths,
			Workers:              rc.workers,
		}),
		fubar.WithTelemetry(tel), // after WithOptions: it overlays the full option struct
	}
	if rc.listen != "" {
		ln, err := net.Listen("tcp", rc.listen)
		if err != nil {
			return err
		}
		srv := telemetry.NewServer(fubar.TelemetryHandler(tel))
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (metrics, trace, debug/pprof)\n", ln.Addr())
		go srv.Serve(ln)
		defer srv.Close()
	}
	if rc.verbose {
		// All diagnostics go to stderr as structured records, so -json
		// output on stdout can never interleave with them.
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		opts = append(opts,
			fubar.WithLogger(logger),
			fubar.WithObserver(fubar.ProgressObserver(logger, 100)))
	}
	if rc.cold {
		opts = append(opts, fubar.WithColdStart())
	}
	if rc.budget > 0 {
		opts = append(opts, fubar.WithBudget(rc.budget))
	}
	if rc.replicas > 1 {
		opts = append(opts, fubar.WithReplicas(rc.replicas))
	}
	if rc.lease > 0 {
		opts = append(opts, fubar.WithRuleLease(rc.lease, policy))
	}
	s, err := fubar.NewSession(topo, mat, opts...)
	if err != nil {
		return err
	}
	defer s.Close()

	if rc.scenName != "" {
		return replay(ctx, s, rc)
	}
	return optimize(ctx, s, rc)
}

// optimize runs one optimization on the session and reports it.
func optimize(ctx context.Context, s *fubar.Session, rc runConfig) error {
	sol, err := s.Optimize(ctx)
	if err != nil {
		return err
	}
	sp, err := fubar.ShortestPathRouting(s.Model(), fubar.Policy{})
	if err != nil {
		return err
	}
	ub, err := fubar.UpperBound(s.Topology(), s.Matrix(), fubar.Policy{})
	if err != nil {
		return err
	}

	if rc.jsonOut {
		return emitJSON(map[string]any{
			"topology":              s.Topology().Summary(),
			"traffic":               s.Matrix().Summary(),
			"solution":              sol,
			"shortest_path_utility": sp.Utility,
			"upper_bound":           ub.Mean,
		})
	}

	fmt.Printf("topology: %s\n", s.Topology().Summary())
	fmt.Printf("traffic:  %s\n", s.Matrix().Summary())
	if sol.Stop == fubar.StopCancelled {
		fmt.Println("interrupted: reporting the partial (best-so-far) solution")
	}

	t := report.NewTable("result", "metric", "value")
	t.AddRow("network utility", sol.Utility)
	t.AddRow("shortest-path utility", sp.Utility)
	t.AddRow("upper bound", ub.Mean)
	t.AddRow("improvement", fmt.Sprintf("%+.1f%%", 100*(sol.Utility-sp.Utility)/sp.Utility))
	t.AddRow("steps", sol.Steps)
	t.AddRow("escalations", sol.Escalations)
	t.AddRow("paths/aggregate", sol.PathsPerAggregate)
	t.AddRow("stop reason", sol.Stop.String())
	t.AddRow("elapsed", sol.Elapsed)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	if rc.showPaths {
		pt := report.NewTable("allocation", "aggregate", "flows", "hops", "delay", "rate(kbps)", "satisfied")
		for i, b := range sol.Bundles {
			if len(b.Edges) == 0 {
				continue
			}
			a := s.Matrix().Aggregate(b.Agg)
			pt.AddRow(
				fmt.Sprintf("%s->%s/%s", s.Topology().NodeName(a.Src), s.Topology().NodeName(a.Dst), a.Class),
				b.Flows, len(b.Edges), b.Delay.String(),
				fmt.Sprintf("%.0f", sol.Result.BundleRate[i]),
				sol.Result.BundleSatisfied[i],
			)
		}
		if err := pt.Render(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// replay streams a canned scenario through the session — plain
// warm-started re-optimization, or the full control plane with
// -ctrlplane — printing the epoch table when the stream ends. An
// interrupt mid-replay reports the epochs completed so far instead of
// dying mid-epoch.
func replay(ctx context.Context, s *fubar.Session, rc runConfig) error {
	sc, err := fubar.ScenarioByName(rc.scenName, rc.seed, rc.epochs)
	if err != nil {
		return err
	}
	if !rc.jsonOut {
		fmt.Printf("topology: %s\n", s.Topology().Summary())
		fmt.Printf("traffic:  %s (epoch 0)\n", s.Matrix().Summary())
	}

	res := &fubar.ScenarioResult{
		Name: sc.Name, Seed: sc.Seed, Topology: s.Topology().Summary(),
		ColdStart: rc.cold, ClosedLoop: rc.ctrlplane,
	}
	var stream func(context.Context, fubar.Scenario) func(func(fubar.EpochRecord, error) bool)
	if rc.ctrlplane {
		stream = func(ctx context.Context, sc fubar.Scenario) func(func(fubar.EpochRecord, error) bool) {
			return s.ReplayClosedLoop(ctx, sc)
		}
	} else {
		stream = func(ctx context.Context, sc fubar.Scenario) func(func(fubar.EpochRecord, error) bool) {
			return s.Replay(ctx, sc)
		}
	}
	if rc.jsonOut {
		return replayJSONL(ctx, stream, sc, rc)
	}

	interrupted := false
	for er, err := range stream(ctx, sc) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				interrupted = true
				break
			}
			return err
		}
		res.Epochs = append(res.Epochs, er)
		res.Installs = append(res.Installs, er.Installs...)
	}

	if interrupted {
		fmt.Printf("interrupted: reporting %d of %d epochs\n", len(res.Epochs), rc.epochs)
	}
	if err := res.Table().Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("utility/epoch: %s\n", res.UtilitySparkline())
	fmt.Printf("totals: %d optimizer steps, %d flow mods, mean utility %.4f (min %.4f)\n",
		res.TotalSteps(), res.TotalFlowMods(), res.MeanUtility(), res.MinUtility())
	if rc.ctrlplane {
		fmt.Printf("wire:   %d counted FlowMods over %d installs, %.0f%% deadline misses, min MBB headroom %+.3f\n",
			res.TotalWireFlowMods(), len(res.Installs), 100*res.DeadlineMissRate(), res.MinMBBHeadroom())
	}
	return nil
}

// replayJSONL streams a -json replay as JSON Lines: one epoch record
// per line the moment its epoch completes (the daemon's encoder, so the
// line shape matches `fubard`'s replay endpoint exactly), closed by one
// summary line. Nothing is buffered — a million-epoch replay piped to
// `jq` holds one record in memory — and an interrupt truncates the
// stream but still emits the summary with "interrupted" set, so a
// partial replay can never be mistaken for a complete one.
func replayJSONL(ctx context.Context, stream func(context.Context, fubar.Scenario) func(func(fubar.EpochRecord, error) bool), sc fubar.Scenario, rc runConfig) error {
	interrupted := false
	seq := func(yield func(fubar.EpochRecord, error) bool) {
		for er, err := range stream(ctx, sc) {
			if err != nil && errors.Is(err, context.Canceled) {
				interrupted = true
				return
			}
			if !yield(er, err) {
				return
			}
		}
	}
	n, err := fubar.WriteEpochsJSONL(os.Stdout, seq)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"summary": map[string]any{
			"scenario":         sc.Name,
			"seed":             sc.Seed,
			"closed_loop":      rc.ctrlplane,
			"cold_start":       rc.cold,
			"epochs_requested": rc.epochs,
			"epochs_streamed":  n,
			"interrupted":      interrupted,
		},
	})
}

// emitJSON writes one indented JSON document to stdout.
func emitJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
