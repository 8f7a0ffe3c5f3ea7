// Benchmarks regenerating the paper's evaluation (§3), one per figure,
// plus the ablations DESIGN.md calls out. Absolute wall-clock convergence
// is the business of cmd/fubar-bench (it runs each case to termination);
// the benchmarks here bound each optimization so `go test -bench=.`
// finishes in minutes, and report solution quality as custom metrics:
//
//	utility        final network utility
//	gain%          improvement over shortest-path routing
//	steps          committed moves
//
// The *shape* targets are asserted in experiment_shape_test.go; benches
// only measure.
package fubar

import (
	"bufio"
	"bytes"
	"context"
	"iter"
	"runtime"
	"testing"
	"time"

	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/classify"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/netsim"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// benchBudget bounds one optimization inside a benchmark iteration.
const benchBudget = 15 * time.Second

// runExperiment executes one bounded experiment run and reports quality
// metrics.
func runExperiment(b *testing.B, cfg experiment.Config) *experiment.RunResult {
	b.Helper()
	var last *experiment.RunResult
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), benchBudget)
		r, err := experiment.Run(ctx, cfg)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(last.Solution.Utility, "utility")
		b.ReportMetric(100*(last.Solution.Utility-last.ShortestPath)/last.ShortestPath, "gain%")
		b.ReportMetric(float64(last.Solution.Steps), "steps")
	}
	return last
}

// BenchmarkFig12UtilityShapes measures utility function evaluation — the
// innermost arithmetic of the whole system (Figs 1–2).
func BenchmarkFig12UtilityShapes(b *testing.B) {
	fns := []utility.Function{utility.RealTime(), utility.Bulk(), utility.LargeFile(1500)}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		fn := fns[i%len(fns)]
		sink += fn.Eval(unit.Bandwidth(i%300), unit.Delay(i%250))
	}
	_ = sink
}

// BenchmarkFig3Provisioned regenerates the provisioned run (Fig 3).
func BenchmarkFig3Provisioned(b *testing.B) {
	runExperiment(b, experiment.Provisioned(1))
}

// BenchmarkFig4Underprovisioned regenerates the underprovisioned run
// (Fig 4).
func BenchmarkFig4Underprovisioned(b *testing.B) {
	runExperiment(b, experiment.Underprovisioned(1))
}

// BenchmarkFig5Prioritized regenerates the large-flow prioritization run
// (Fig 5) and reports the large-flow utility it reaches.
func BenchmarkFig5Prioritized(b *testing.B) {
	r := runExperiment(b, experiment.Prioritized(1))
	if r != nil {
		if last, ok := r.LargeUtility.Last(); ok {
			b.ReportMetric(last.V, "large-utility")
		}
	}
}

// BenchmarkFig6DelayRelaxation regenerates the relaxed-delay run (Fig 6)
// and reports the median per-flow delay.
func BenchmarkFig6DelayRelaxation(b *testing.B) {
	r := runExperiment(b, experiment.RelaxedDelay(1))
	if r != nil {
		cdf := metrics.NewCDF(r.FlowDelayMs)
		b.ReportMetric(cdf.Quantile(0.5), "p50-delay-ms")
		b.ReportMetric(cdf.Quantile(0.99), "p99-delay-ms")
	}
}

// BenchmarkFig7Repeatability regenerates a scaled-down repeatability
// sweep (Fig 7 uses 100 seeds; each bench iteration runs 3).
func BenchmarkFig7Repeatability(b *testing.B) {
	cfg := experiment.Provisioned(1)
	var last *experiment.RepeatabilityResult
	for i := 0; i < b.N; i++ {
		// 5 s for each of the 3 runs.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		r, err := experiment.Repeatability(ctx, cfg, 3)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if last != nil {
		b.ReportMetric(metrics.Summarize(last.Fubar.Values()).Mean, "mean-utility")
		b.ReportMetric(metrics.Summarize(last.ShortestPath.Values()).Mean, "mean-sp-utility")
	}
}

// BenchmarkRunningTimeSmall measures full convergence (no deadline) on a
// mid-size instance — the §3 "running time" claim at a size where every
// benchmark iteration converges.
func BenchmarkRunningTimeSmall(b *testing.B) {
	topo, err := topology.Ring(12, 8, 3*unit.Mbps, 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(17)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 6}
	cfg.LargeFlows = [2]int{1, 2}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var sol *core.Solution
	for i := 0; i < b.N; i++ {
		m, err := flowmodel.New(topo, mat)
		if err != nil {
			b.Fatal(err)
		}
		sol, err = core.Run(context.Background(), m, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sol != nil {
		b.ReportMetric(sol.Utility, "utility")
		b.ReportMetric(float64(sol.Steps), "steps")
	}
}

// BenchmarkTrafficModelHE961 measures one §2.3 model evaluation at paper
// scale: 961 aggregates on HE-31, shortest-path bundles.
func BenchmarkTrafficModelHE961(b *testing.B) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	var bundles []flowmodel.Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			b.Fatal("no path")
		}
		bundles = append(bundles, flowmodel.NewBundle(topo, a.ID, a.Flows, p))
	}
	arena := m.NewEval()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Evaluate(bundles)
	}
}

// BenchmarkPathGenAlternatives measures the §2.4 trio generation: "search"
// on a generator rebuilt (untimed) before any request repeats, so all three
// members run the shortest-path kernel — plainly, as the generator holds no
// tree to steer a search by; "goal-directed" the same on generators whose
// lowest-delay trees, one rooted at every node, are built before the timer
// runs, so every search is steered toward its destination; "memo" on a
// warm generator, where every request is one the generator has answered
// before. The two search legs report the nodes a request settled.
func BenchmarkPathGenAlternatives(b *testing.B) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]bool, topo.NumLinks())
	used := make([]bool, topo.NumLinks())
	for i := 0; i < topo.NumLinks(); i += 7 {
		all[i] = true
		used[i] = i%2 == 0
	}
	n := topo.NumNodes()
	pairs := n * (n - 1)
	newGen := func() *pathgen.Generator {
		gen, err := pathgen.New(topo, pathgen.Policy{})
		if err != nil {
			b.Fatal(err)
		}
		return gen
	}
	ask := func(gen *pathgen.Generator, i int) {
		k := i % pairs
		src := k / (n - 1)
		gen.Alternatives(pathgen.Request{
			Src: graph.NodeID(src), Dst: graph.NodeID((src + 1 + k%(n-1)) % n),
			CongestedAll:  all,
			CongestedUsed: used,
			MostCongested: 14,
		})
	}
	searches := func(trees bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var gen *pathgen.Generator
			var settled int64
			for i := 0; i < b.N; i++ {
				if i%pairs == 0 {
					b.StopTimer()
					if gen != nil {
						settled += gen.Stats().Settled
					}
					gen = newGen()
					for v := 0; trees && v < n; v++ {
						gen.LowestDelay(graph.NodeID(v), graph.NodeID((v+1)%n))
					}
					gen.ResetStats()
					b.StartTimer()
				}
				ask(gen, i)
			}
			settled += gen.Stats().Settled
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		}
	}
	b.Run("search", searches(false))
	b.Run("goal-directed", searches(true))
	b.Run("memo", func(b *testing.B) {
		gen := newGen()
		for i := 0; i < pairs; i++ {
			ask(gen, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ask(gen, i)
		}
	})
}

// workCounts is what one operation asked of the layers below, exact per
// commit: path searches run (early-exit and tree-building alike) and the
// nodes they settled, candidates scored, bundles skipped because a failed
// step had refuted them — by a link earlier in the same pass, by the
// escalation level below at an unchanged move size — committed steps,
// escalations, builds of the optimizer's bundle list (one per run plus
// one per step whose collection appended a path: every other step patches
// it in place), and the sub-problem re-runs flowmodel's delta scoring made
// (a lazy hit that widened the sub-problem, or a load check that promoted
// a link; a lazy hit that widens nothing continues in place). The two benchmarks below report them per operation;
// TestWorkCountsPinned compares them with testdata/work_counts.golden over
// the same operations.
type workCounts struct {
	searches, settled, candidates, refutedLink, refutedLevel, steps, escalations, builds, reruns int64
}

func (w *workCounts) add(o workCounts) {
	w.searches += o.searches
	w.settled += o.settled
	w.candidates += o.candidates
	w.refutedLink += o.refutedLink
	w.refutedLevel += o.refutedLevel
	w.steps += o.steps
	w.escalations += o.escalations
	w.builds += o.builds
	w.reruns += o.reruns
}

func (w workCounts) sub(o workCounts) workCounts {
	return workCounts{w.searches - o.searches, w.settled - o.settled, w.candidates - o.candidates,
		w.refutedLink - o.refutedLink, w.refutedLevel - o.refutedLevel, w.steps - o.steps, w.escalations - o.escalations,
		w.builds - o.builds, w.reruns - o.reruns}
}

// report prints the per-operation counts beside a benchmark's times.
func (w workCounts) report(b *testing.B, ops int, per string) {
	b.ReportMetric(float64(w.searches)/float64(ops), "searches/"+per)
	b.ReportMetric(float64(w.settled)/float64(ops), "settled/"+per)
	b.ReportMetric(float64(w.candidates)/float64(ops), "candidates/"+per)
	b.ReportMetric(float64(w.refutedLink)/float64(ops), "refuted-link/"+per)
	b.ReportMetric(float64(w.refutedLevel)/float64(ops), "refuted-level/"+per)
	b.ReportMetric(float64(w.builds)/float64(ops), "builds/"+per)
	b.ReportMetric(float64(w.reruns)/float64(ops), "reruns/"+per)
}

// solutionWork reads one optimization's counts off its Solution.
func solutionWork(sol *Solution) workCounts {
	return workCounts{
		searches:     sol.Paths.Searches + sol.Paths.TreesBuilt,
		settled:      sol.Paths.Settled,
		candidates:   sol.Delta.Calls,
		refutedLink:  int64(sol.RefutedBundles - sol.RefutedByLevel),
		refutedLevel: int64(sol.RefutedByLevel),
		steps:        int64(sol.Steps),
		escalations:  int64(sol.Escalations),
		builds:       int64(sol.ListBuilds),
		reruns:       sol.Delta.Expansions,
	}
}

// telemetryWork reads a session's running counts off its telemetry.
func telemetryWork(tel *Telemetry) workCounts {
	c := tel.Snapshot().Counters
	return workCounts{
		searches:     c[`fubar_pathgen_lookups_total{result="search"}`] + c["fubar_pathgen_trees_built_total"],
		settled:      c["fubar_pathgen_settled_total"],
		candidates:   c["fubar_core_candidates_collected_total"],
		refutedLink:  c[`fubar_core_refuted_bundles_total{rule="link"}`],
		refutedLevel: c[`fubar_core_refuted_bundles_total{rule="level"}`],
		steps:        c["fubar_core_steps_total"],
		escalations:  c["fubar_core_escalations_total"],
		builds:       c["fubar_core_list_builds_total"],
		reruns:       c["fubar_eval_delta_expansions_total"],
	}
}

// coldScaleS is benchmark/'s cold-scale-s instance set: the scale-s Waxman
// topology (seed 1) and eight fixed 1500-aggregate matrices.
func coldScaleS(tb testing.TB) (*Topology, []*Matrix) {
	tb.Helper()
	preset, err := ScalePresetByName("scale-s")
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := preset.Topology(1)
	if err != nil {
		tb.Fatal(err)
	}
	mats := make([]*Matrix, 8)
	for i := range mats {
		cfg := DefaultGenConfig(int64(i + 1))
		cfg.RealTimeFlows = [2]int{2, 10}
		cfg.BulkFlows = [2]int{1, 4}
		cfg.IncludeSelfPairs = false
		if mats[i], err = SparseTraffic(topo, cfg, preset.Aggregates); err != nil {
			tb.Fatal(err)
		}
	}
	return topo, mats
}

// coldOptimize is one cold-scale-s operation: a cold Session.Optimize, fresh
// session included, at WithWorkers(1).
func coldOptimize(tb testing.TB, topo *Topology, mat *Matrix) *Solution {
	tb.Helper()
	s, err := NewSession(topo, mat, WithWorkers(1))
	if err != nil {
		tb.Fatal(err)
	}
	sol, err := s.Optimize(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return sol
}

// BenchmarkColdOptimizeScaleS is benchmark/'s cold-scale-s operation under
// go test: coldOptimize over coldScaleS's matrices in turn. Besides time it
// reports the operation's workCounts and the lookups a donor answered. The
// counts are exact per matrix, so at -benchtime 8x (or a multiple) they
// compare across commits where the times cannot.
func BenchmarkColdOptimizeScaleS(b *testing.B) {
	topo, mats := coldScaleS(b)
	var work workCounts
	var donated int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := coldOptimize(b, topo, mats[i%len(mats)])
		work.add(solutionWork(sol))
		donated += sol.Paths.Donated
	}
	work.report(b, b.N, "op")
	b.ReportMetric(float64(donated)/float64(b.N), "donated/op")
}

// replayLeg is one of benchmark/'s two replay operations under go test: an
// open-loop crisis replay on the HE-31 benchmark instance (replay-he-crisis)
// and a closed-loop soak replay on the 6-node ring at three controller
// replicas (closedloop-ring-soak), both at WithWorkers(1) over fixed
// timelines of epochs epochs each.
type replayLeg struct {
	name     string
	epochs   int // per timeline
	instance func() (*Topology, *Matrix, error)
	opts     []SessionOption
	replay   func(*Session, int64) iter.Seq2[EpochRecord, error]
}

var replayLegs = []replayLeg{
	{"he-crisis", 8, func() (*Topology, *Matrix, error) { return scenario.HEBenchInstance(5) }, nil,
		func(s *Session, seed int64) iter.Seq2[EpochRecord, error] {
			return s.Replay(context.Background(), CrisisScenario(seed, 8, 1.3, 3))
		}},
	{"ring-soak", 200, func() (*Topology, *Matrix, error) {
		topo, err := RingTopology(6, 3, 600*Kbps, 1)
		if err != nil {
			return nil, nil, err
		}
		cfg := DefaultGenConfig(7)
		cfg.RealTimeFlows = [2]int{1, 4}
		cfg.BulkFlows = [2]int{1, 3}
		mat, err := GenerateTraffic(topo, cfg)
		return topo, mat, err
	}, []SessionOption{WithReplicas(3)},
		func(s *Session, seed int64) iter.Seq2[EpochRecord, error] {
			return s.ReplayClosedLoop(context.Background(), SoakScenario(seed, 200, 5))
		}},
}

// warmEpochs replays the leg's timelines (seeds 1, 2, …) on one telemetered
// session until n warm epochs have run, calling begin right before each and
// end right after it with the session's telemetry. An epoch is warm when its
// replay already ran one: epoch 0 of every timeline — a cold optimization on
// a fresh optimizer — is replayed but falls outside every begin/end pair.
func (leg replayLeg) warmEpochs(tb testing.TB, n int, begin, end func(*Telemetry)) {
	tb.Helper()
	topo, mat, err := leg.instance()
	if err != nil {
		tb.Fatal(err)
	}
	tel := NewTelemetry()
	s, err := NewSession(topo, mat, append(leg.opts, WithWorkers(1), WithTelemetry(tel))...)
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	epochs := 0
	for seed := int64(1); epochs < n; seed++ {
		for er, err := range leg.replay(s, seed) {
			if err != nil {
				tb.Fatal(err)
			}
			if er.Epoch > 0 {
				end(tel)
				epochs++
			}
			if epochs == n {
				break
			}
			if er.Epoch < leg.epochs-1 {
				begin(tel)
			}
		}
	}
}

// BenchmarkReplayEpoch times one warm epoch of each replayLeg. Besides time
// it reports what the epoch allocated and its workCounts — the searches are
// what a per-epoch rebuild of the optimizer, its path memo or its arenas
// would bring back, the candidates and refuted bundles what the pass loop
// asked flowmodel to score and what it skipped. At a fixed -benchtime the
// work counts are exact per commit, and allocs and bytes repeat to well
// under a percent (map buckets) on both legs, the closed loop's control
// plane goroutines included.
func BenchmarkReplayEpoch(b *testing.B) {
	for _, leg := range replayLegs {
		b.Run(leg.name, func(b *testing.B) {
			var before, after runtime.MemStats
			var bytes, mallocs uint64
			var work, mark workCounts
			b.StopTimer()
			leg.warmEpochs(b, b.N, func(tel *Telemetry) {
				mark = telemetryWork(tel)
				runtime.ReadMemStats(&before)
				b.StartTimer()
			}, func(tel *Telemetry) {
				b.StopTimer()
				runtime.ReadMemStats(&after)
				bytes += after.TotalAlloc - before.TotalAlloc
				mallocs += after.Mallocs - before.Mallocs
				work.add(telemetryWork(tel).sub(mark))
			})
			b.ReportMetric(float64(bytes)/float64(b.N), "B/epoch")
			b.ReportMetric(float64(mallocs)/float64(b.N), "allocs/epoch")
			work.report(b, b.N, "epoch")
		})
	}
}

// BenchmarkBaselineShortestPath measures the shortest-path reference.
func BenchmarkBaselineShortestPath(b *testing.B) {
	m := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ShortestPath(m, pathgen.Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpperBound measures the §3 isolation bound at paper scale.
func BenchmarkUpperBound(b *testing.B) {
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.UpperBound(topo, mat, pathgen.Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchModel(b *testing.B) *flowmodel.Model {
	b.Helper()
	topo, err := topology.HurricaneElectric(100 * unit.Mbps)
	if err != nil {
		b.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// ablationInstance returns a ring instance that converges in seconds,
// used by the A1/A2 ablation benches.
func ablationInstance(b *testing.B) (*topology.Topology, *traffic.Matrix) {
	b.Helper()
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 21)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(33)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return topo, mat
}

// BenchmarkAblationPathTrio compares the §2.4 path-choice variants
// ("we tried different approaches and found this particular choice of
// three paths to be the best tradeoff").
func BenchmarkAblationPathTrio(b *testing.B) {
	for _, mode := range []core.AltMode{core.AltAll, core.AltGlobalOnly, core.AltLocalOnly, core.AltLinkLocalOnly} {
		b.Run(mode.String(), func(b *testing.B) {
			topo, mat := ablationInstance(b)
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				m, err := flowmodel.New(topo, mat)
				if err != nil {
					b.Fatal(err)
				}
				sol, err = core.Run(context.Background(), m, core.Options{AltMode: mode})
				if err != nil {
					b.Fatal(err)
				}
			}
			if sol != nil {
				b.ReportMetric(sol.Utility, "utility")
				b.ReportMetric(float64(sol.Steps), "steps")
			}
		})
	}
}

// BenchmarkAblationEscalation compares greedy-only against §2.5's
// move-size escalation.
func BenchmarkAblationEscalation(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"with-escalation", false},
		{"greedy-only", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			topo, mat := ablationInstance(b)
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				m, err := flowmodel.New(topo, mat)
				if err != nil {
					b.Fatal(err)
				}
				sol, err = core.Run(context.Background(), m, core.Options{DisableEscalation: tc.disable})
				if err != nil {
					b.Fatal(err)
				}
			}
			if sol != nil {
				b.ReportMetric(sol.Utility, "utility")
				b.ReportMetric(float64(sol.Escalations), "escalations")
			}
		})
	}
}

// BenchmarkQueueAvoidance measures the §3 "avoiding congestion" claim:
// queueing delay of shortest-path routing versus the optimized
// allocation on a congested instance, reporting the improvement ratio.
func BenchmarkQueueAvoidance(b *testing.B) {
	topo, mat := ablationInstance(b)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, _, err := netsim.Compare(topo, model, sp.Bundles, sol.Bundles)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r
	}
	b.ReportMetric(ratio, "queue-improvement-x")
}

// BenchmarkAblationAnnealing is ablation A4: FUBAR's guided escalation
// vs the naive simulated-annealing comparator of §2.5, on the same
// instance. FUBAR should land at comparable utility with orders of
// magnitude fewer traffic-model evaluations.
func BenchmarkAblationAnnealing(b *testing.B) {
	b.Run("fubar", func(b *testing.B) {
		topo, mat := ablationInstance(b)
		var sol *core.Solution
		for i := 0; i < b.N; i++ {
			model, err := flowmodel.New(topo, mat)
			if err != nil {
				b.Fatal(err)
			}
			sol, err = core.Run(context.Background(), model, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sol.Utility, "utility")
		b.ReportMetric(float64(sol.Steps), "steps")
	})
	b.Run("naive-sa", func(b *testing.B) {
		topo, mat := ablationInstance(b)
		var sol *anneal.Solution
		for i := 0; i < b.N; i++ {
			model, err := flowmodel.New(topo, mat)
			if err != nil {
				b.Fatal(err)
			}
			sol, err = anneal.Run(context.Background(), model, anneal.Options{Seed: 33, MaxIterations: 30000})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sol.Utility, "utility")
		b.ReportMetric(float64(sol.Evaluations), "evaluations")
	})
}

// BenchmarkModelValidation measures the dynamic AIMD simulation used to
// validate the §2.3 analytic model, reporting how closely the two agree
// on a FUBAR allocation.
func BenchmarkModelValidation(b *testing.B) {
	topo, mat := ablationInstance(b)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var val *dsim.Validation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simRes, err := dsim.Simulate(topo, mat, sol.Bundles, dsim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		val, err = dsim.Validate(sol.Bundles, sol.Result, simRes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(val.Correlation, "correlation")
	b.ReportMetric(100*val.MeanRelErr, "mean-rel-err%")
}

// BenchmarkDynamicQueues re-checks the §3 queue-avoidance claim with
// simulated drop-tail queues instead of the analytic M/M/1 estimate of
// BenchmarkQueueAvoidance.
func BenchmarkDynamicQueues(b *testing.B) {
	topo, mat := ablationInstance(b)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var spQ, fuQ float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spSim, err := dsim.Simulate(topo, mat, sp.Bundles, dsim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		fuSim, err := dsim.Simulate(topo, mat, sol.Bundles, dsim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		spQ, fuQ = spSim.MeanQueueMs, fuSim.MeanQueueMs
	}
	b.ReportMetric(spQ, "sp-queue-ms")
	b.ReportMetric(fuQ, "fubar-queue-ms")
	if fuQ > 0 {
		b.ReportMetric(spQ/fuQ, "queue-improvement-x")
	}
}

// BenchmarkWireCodec measures the control protocol's codec on an
// HE-31-sized FlowMod (961 aggregates, ~3 links per rule).
func BenchmarkWireCodec(b *testing.B) {
	mod := ctrlplane.FlowMod{Generation: 1}
	for a := 0; a < 961; a++ {
		mod.Rules = append(mod.Rules, ctrlplane.Rule{
			Agg: int32(a), Flows: uint32(a%40 + 1),
			Links: []uint32{uint32(a % 56), uint32((a + 7) % 56), uint32((a + 19) % 56)},
		})
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ctrlplane.WriteMessage(&buf, mod); err != nil {
			b.Fatal(err)
		}
		if _, err := ctrlplane.ReadMessage(bufio.NewReader(&buf)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkControlPlaneCycle measures one full control cycle over
// loopback TCP on a one-seat replica set with one managed agent per POP:
// install an allocation differentially and collect one round of
// counters. Iterations alternate the FUBAR allocation and the
// shortest-path one, so each install rewrites every switch whose table
// differs between the two (an unchanged table writes no FlowMod);
// FlowMods/op counts them.
func BenchmarkControlPlaneCycle(b *testing.B) {
	topo, mat := ablationInstance(b)
	sim, err := sdnsim.New(topo, mat, sdnsim.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		b.Fatal(err)
	}
	fabric := ctrlplane.NewFabric(sim)
	rs, err := ctrlplane.NewReplicaSet(1, ctrlplane.ControllerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	for n := 0; n < topo.NumNodes(); n++ {
		node := topology.NodeID(n)
		agent, err := ctrlplane.NewManagedAgent(uint32(n), topo.NodeName(node), fabric.Datapath(node), rs, ctrlplane.AgentConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer agent.Close()
	}
	wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rs.WaitForSwitchesCtx(wctx, topo.NumNodes()); err != nil {
		b.Fatal(err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := baseline.ShortestPath(model, pathgen.Policy{})
	if err != nil {
		b.Fatal(err)
	}
	allocations := [2][]flowmodel.Bundle{sol.Bundles, sp.Bundles}
	if err := fabric.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	flowMods := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := rs.InstallAllocationDiff(context.Background(), mat, allocations[i%2], uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		flowMods += out.FlowMods
		if _, err := rs.CollectStats(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(flowMods)/float64(b.N), "FlowMods/op")
}

// BenchmarkMPLSSync measures converting a FUBAR solution into reserved
// MPLS-TE tunnels.
func BenchmarkMPLSSync(b *testing.B) {
	topo, mat := ablationInstance(b)
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var stats *mpls.SyncStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := mpls.NewDB(topo)
		if err != nil {
			b.Fatal(err)
		}
		stats, err = mpls.SyncSolution(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Admitted), "tunnels")
	b.ReportMetric(float64(len(stats.Failed)), "failed")
}

// BenchmarkClassifier measures the three-tier classification decision.
func BenchmarkClassifier(b *testing.B) {
	cl, err := classify.New(classify.Options{},
		classify.Override{DstName: "lon", PortLo: 8000, PortHi: 9000, Class: utility.ClassRealTime})
	if err != nil {
		b.Fatal(err)
	}
	feats := []classify.Features{
		{DstName: "lon", Port: 8443},
		{Port: 5060},
		{MeanRatePerFlow: 40 * unit.Kbps, RateCV: 0.1},
		{MeanRatePerFlow: 900 * unit.Kbps, RateCV: 0.8},
		{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cl.Classify(feats[i%len(feats)])
	}
}

// BenchmarkFailover measures a full link-failure recovery episode:
// optimize, fail the hottest link, warm-start re-optimize.
func BenchmarkFailover(b *testing.B) {
	topo, mat := ablationInstance(b)
	var res *experiment.FailoverResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Failover(context.Background(), topo, mat, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Healthy, "healthy-utility")
	b.ReportMetric(res.Degraded, "degraded-utility")
	b.ReportMetric(res.Recovered, "recovered-utility")
	b.ReportMetric(float64(res.ReoptimizeSteps), "recovery-steps")
}
