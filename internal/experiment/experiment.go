// Package experiment wires topology, traffic, baselines and the optimizer
// into the paper's §3 evaluation: one runner per figure, each returning
// the series/distributions that regenerate it.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/baseline"
	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/metrics"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// Config describes one optimization run of the paper's setup.
type Config struct {
	// Capacity is the uniform link capacity: 100 Mbps for the paper's
	// provisioned case, 75 Mbps for underprovisioned.
	Capacity unit.Bandwidth
	// Seed drives the random traffic matrix.
	Seed int64
	// Traffic overrides the workload; zero value means
	// traffic.DefaultGenConfig(Seed).
	Traffic *traffic.GenConfig
	// LargeWeight multiplies the utility weight of large-file aggregates
	// (Fig 5 prioritization); 0 or 1 disables.
	LargeWeight float64
	// DelayScale stretches the delay utility component of non-large
	// aggregates (Fig 6 relaxed delay); 0 or 1 disables.
	DelayScale float64
	// Options tunes the optimizer, including Options.Workers — the
	// per-step parallel candidate-evaluation fan-out (results are
	// identical at any worker count).
	Options core.Options
	// Topology overrides the HE-31 substitute (tests use smaller nets).
	Topology *topology.Topology
}

// Provisioned returns the paper's provisioned configuration (Fig 3).
func Provisioned(seed int64) Config {
	return Config{Capacity: 100 * unit.Mbps, Seed: seed}
}

// Underprovisioned returns the underprovisioned configuration (Fig 4).
func Underprovisioned(seed int64) Config {
	return Config{Capacity: 75 * unit.Mbps, Seed: seed}
}

// Prioritized returns Fig 5's configuration: underprovisioned with large
// flows weighted 8x.
func Prioritized(seed int64) Config {
	c := Underprovisioned(seed)
	c.LargeWeight = 8
	return c
}

// RelaxedDelay returns Fig 6's variant: underprovisioned with small
// (non-large) flows' delay parameter doubled.
func RelaxedDelay(seed int64) Config {
	c := Underprovisioned(seed)
	c.DelayScale = 2
	return c
}

// RunResult carries everything the figures plot.
type RunResult struct {
	// Utility is the "total average" network utility over wall time.
	Utility *metrics.Series
	// LargeUtility is the flow-weighted mean utility of large-file
	// aggregates over time (the middle panels of Figs 3–5).
	LargeUtility *metrics.Series
	// ActualUtilization and DemandedUtilization are the right panels.
	ActualUtilization   *metrics.Series
	DemandedUtilization *metrics.Series
	// ShortestPath is the paper's lower-bound reference line.
	ShortestPath float64
	// UpperBound is the isolation bound reference line.
	UpperBound float64
	// Solution is the optimizer's outcome.
	Solution *core.Solution
	// FlowDelayMs has one entry per flow: the round-trip propagation
	// delay of the path carrying it at termination (Fig 6's CDF; delay
	// curves and this distribution are both RTT).
	FlowDelayMs []float64
	// Matrix is the traffic matrix used.
	Matrix *traffic.Matrix
	// Topology is the topology used.
	Topology *topology.Topology
}

// Instance materializes the configured topology and traffic matrix
// without optimizing — the preparation half of Run, shared with the
// scenario-replay front ends, which use it as epoch 0 of a timeline.
func Instance(cfg Config) (*topology.Topology, *traffic.Matrix, error) {
	topo := cfg.Topology
	var err error
	if topo == nil {
		topo, err = topology.HurricaneElectric(cfg.Capacity)
		if err != nil {
			return nil, nil, err
		}
	} else if cfg.Capacity > 0 {
		topo, err = topo.WithUniformCapacity(cfg.Capacity)
		if err != nil {
			return nil, nil, err
		}
	}
	tc := traffic.DefaultGenConfig(cfg.Seed)
	if cfg.Traffic != nil {
		tc = *cfg.Traffic
		tc.Seed = cfg.Seed
	}
	mat, err := traffic.Generate(topo, tc)
	if err != nil {
		return nil, nil, err
	}
	if cfg.LargeWeight > 0 && cfg.LargeWeight != 1 {
		mat, err = mat.WithWeights(func(a traffic.Aggregate) float64 {
			if a.Class == utility.ClassLargeFile {
				return cfg.LargeWeight
			}
			return 1
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if cfg.DelayScale > 0 && cfg.DelayScale != 1 {
		mat, err = mat.WithDelayScaled(cfg.DelayScale, func(a traffic.Aggregate) bool {
			return a.Class != utility.ClassLargeFile
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return topo, mat, nil
}

// Run executes one configured optimization.
func Run(ctx context.Context, cfg Config) (*RunResult, error) {
	topo, mat, err := Instance(cfg)
	if err != nil {
		return nil, err
	}
	return RunOn(ctx, topo, mat, cfg.Options)
}

// RunOn executes the evaluation pipeline on a prepared topology + matrix:
// upper bound, shortest-path baseline, then the FUBAR optimization with
// full progress tracing.
func RunOn(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, opts core.Options) (*RunResult, error) {
	ub, err := baseline.UpperBound(topo, mat, opts.Policy)
	if err != nil {
		return nil, err
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return nil, err
	}
	out := &RunResult{
		Utility:             metrics.NewSeries("total average"),
		LargeUtility:        metrics.NewSeries("large flows average"),
		ActualUtilization:   metrics.NewSeries("actual"),
		DemandedUtilization: metrics.NewSeries("demanded"),
		UpperBound:          ub.Mean,
		Matrix:              mat,
		Topology:            topo,
	}

	// Identify large aggregates once for the middle-panel series.
	var largeIDs []traffic.AggregateID
	var largeFlows []float64
	for _, a := range mat.Aggregates() {
		if a.Class == utility.ClassLargeFile {
			largeIDs = append(largeIDs, a.ID)
			largeFlows = append(largeFlows, float64(a.Flows))
		}
	}
	userTrace := opts.Trace
	opts.Trace = func(s core.Snapshot) {
		out.Utility.Add(s.Elapsed, s.Result.NetworkUtility)
		if len(largeIDs) > 0 {
			vals := make([]float64, len(largeIDs))
			for i, id := range largeIDs {
				vals[i] = s.Result.AggUtility[id]
			}
			out.LargeUtility.Add(s.Elapsed, metrics.WeightedMean(vals, largeFlows))
		}
		out.ActualUtilization.Add(s.Elapsed, s.Result.ActualUtilization)
		out.DemandedUtilization.Add(s.Elapsed, s.Result.DemandedUtilization)
		if userTrace != nil {
			userTrace(s)
		}
	}
	sol, err := core.Run(ctx, model, opts)
	if err != nil {
		return nil, err
	}
	out.Solution = sol
	out.ShortestPath = sol.InitialUtility
	out.FlowDelayMs = flowDelays(sol.Bundles)
	return out, nil
}

// flowDelays expands bundles to a per-flow delay sample set.
func flowDelays(bundles []flowmodel.Bundle) []float64 {
	var out []float64
	for _, b := range bundles {
		if len(b.Edges) == 0 {
			continue // self-pair traffic never crosses the backbone
		}
		d := 2 * float64(b.Delay) // RTT, matching the utility delay axis
		for i := 0; i < b.Flows; i++ {
			out = append(out, d)
		}
	}
	return out
}

// RepeatabilityResult is Fig 7's data: the distributions of final,
// shortest-path and upper-bound utility across seeds.
type RepeatabilityResult struct {
	Fubar        *metrics.CDF
	ShortestPath *metrics.CDF
	UpperBound   *metrics.CDF
	Runs         int
}

// Repeatability reruns the configuration across `runs` consecutive seeds
// (Fig 7 uses 100 runs of the provisioned case). Runs execute in
// parallel: the base.Options.Workers budget (default GOMAXPROCS) is
// split between across-seed fan-out and within-run candidate
// evaluation, so few runs on many cores still parallelize inside each
// run while many runs get one evaluator each. Each run owns its model,
// matrix and evaluation arenas — runs share nothing — and results are
// collected by seed index, so the distributions are identical at any
// worker count; a Trace callback on base.Options must be safe for
// concurrent invocation.
func Repeatability(ctx context.Context, base Config, runs int) (*RepeatabilityResult, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("experiment: runs must be positive, got %d", runs)
	}
	workers := base.Options.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	width := workers
	if width > runs {
		width = runs
	}
	perRun := workers / width // >= 1: the leftover budget parallelizes within runs
	fub := make([]float64, runs)
	sp := make([]float64, runs)
	ub := make([]float64, runs)
	errs := make([]error, runs)
	// width goroutines claim seed indices in order from one counter.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < runs; i = int(next.Add(1)) - 1 {
				cfg := base
				cfg.Seed = base.Seed + int64(i)
				cfg.Options.Workers = perRun
				r, err := Run(ctx, cfg)
				if err != nil {
					errs[i] = fmt.Errorf("experiment: seed %d: %v", cfg.Seed, err)
					continue
				}
				fub[i] = r.Solution.Utility
				sp[i] = r.ShortestPath
				ub[i] = r.UpperBound
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &RepeatabilityResult{
		Fubar:        metrics.NewCDF(fub),
		ShortestPath: metrics.NewCDF(sp),
		UpperBound:   metrics.NewCDF(ub),
		Runs:         runs,
	}, nil
}

// RuntimeRow is one row of the §3 running-time report.
type RuntimeRow struct {
	Name     string
	Elapsed  time.Duration
	Steps    int
	Utility  float64
	Stop     core.StopReason
	PathsPer float64
}

// RuntimeTable measures wall-clock convergence of the provisioned and
// underprovisioned cases ("Running time", §3).
func RuntimeTable(ctx context.Context, seed int64, opts core.Options) ([]RuntimeRow, error) {
	rows := make([]RuntimeRow, 0, 2)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"provisioned (100 Mbps)", Provisioned(seed)},
		{"underprovisioned (75 Mbps)", Underprovisioned(seed)},
	} {
		c.cfg.Options = opts
		r, err := Run(ctx, c.cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RuntimeRow{
			Name:     c.name,
			Elapsed:  r.Solution.Elapsed,
			Steps:    r.Solution.Steps,
			Utility:  r.Solution.Utility,
			Stop:     r.Solution.Stop,
			PathsPer: r.Solution.PathsPerAggregate,
		})
	}
	return rows, nil
}
