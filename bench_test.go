// Benchmarks of the hot paths CI's "Benchmarks (smoke)" step times: path
// generation, a cold scale-s optimization and a warm replay epoch, the last
// two the go test form of benchmark/'s cold-scale-s, replay-he-crisis and
// closedloop-ring-soak operations. Paper figures, ablations and extensions
// have one producer each, a cmd/fubar-bench experiment, and one check, a
// TestShape* test here or a package test; they are not re-timed here.
// TestBenchmarksRunInCI fails on a benchmark in this package that the
// smoke step's regexps do not run.
package fubar

import (
	"context"
	"iter"
	"runtime"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/instance"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

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
// topology (seed 1) and its first eight 1500-aggregate matrices.
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
		if mats[i], err = preset.Matrix(topo, int64(i+1)); err != nil {
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

// replayLeg is one of benchmark/'s replay operations under go test: an
// open-loop crisis replay on the HE-31 benchmark instance (replay-he-crisis),
// a closed-loop soak replay on the 6-node ring at three controller replicas
// (closedloop-ring-soak), and the open-loop diurnal replay a daemon-mixed
// tenant streams — the same ring under the daemon's default matrix for
// tenant seed 1, eight epochs of the "diurnal" timeline — all at
// WithWorkers(1) over fixed timelines of epochs epochs each.
type replayLeg struct {
	name     string
	epochs   int // per timeline
	instance func() (*Topology, *Matrix, error)
	opts     []SessionOption
	replay   func(*Session, int64) iter.Seq2[EpochRecord, error]
}

var replayLegs = []replayLeg{
	{"he-crisis", 8, func() (*Topology, *Matrix, error) { return instance.HEBench(5) }, nil,
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
	{"diurnal-ring", 8, func() (*Topology, *Matrix, error) {
		topo, err := RingTopology(6, 3, 600*Kbps, 1)
		if err != nil {
			return nil, nil, err
		}
		mat, err := GenerateTraffic(topo, DefaultGenConfig(1))
		return topo, mat, err
	}, nil,
		func(s *Session, seed int64) iter.Seq2[EpochRecord, error] {
			// ScenarioByName's "diurnal", what the daemon's replay query names.
			return s.Replay(context.Background(), DiurnalScenario(seed, 8, 0.4, 0.15))
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
