package flowmodel

import (
	"fmt"
	"sync"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// benchModel builds a congested ring model and a full shortest-path
// bundle placement for it.
func benchModel(b *testing.B) (*Model, []Bundle) {
	b.Helper()
	topo, err := topology.Ring(12, 8, 1200*unit.Kbps, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(17)
	cfg.RealTimeFlows = [2]int{5, 20}
	cfg.BulkFlows = [2]int{3, 10}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	var bundles []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			b.Fatalf("no path for aggregate %d", a.ID)
		}
		bundles = append(bundles, NewBundle(topo, a.ID, a.Flows, p))
	}
	return m, bundles
}

// BenchmarkEvaluateParallel measures aggregate water-filling throughput
// when N goroutines evaluate concurrently, each over its own Eval arena.
// Per-op time is wall time per evaluation across all arenas; ideal
// scaling divides the workers=1 figure by min(N, cores).
func BenchmarkEvaluateParallel(b *testing.B) {
	m, bundles := benchModel(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			arenas := make([]*Eval, workers)
			for i := range arenas {
				arenas[i] = m.NewEval()
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					arena := arenas[w]
					// Static split of b.N evaluations across workers.
					n := b.N / workers
					if w < b.N%workers {
						n++
					}
					for i := 0; i < n; i++ {
						arena.Evaluate(bundles)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkEvaluateFull times a full Evaluate of the scale presets'
// lowest-delay lists (every aggregate's flows on its lowest-delay path).
// links is the number of links the fill seeds.
func BenchmarkEvaluateFull(b *testing.B) {
	for _, name := range scalePresets {
		m, bundles := presetInstance(b, name, 1)
		seeded := 0 // links with an active crosser
		for _, dem := range m.NewEval().Evaluate(bundles).LinkDemand {
			if dem > 0 {
				seeded++
			}
		}
		b.Run(name, func(b *testing.B) {
			arena := m.NewEval()
			arena.Evaluate(bundles)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Evaluate(bundles)
			}
			b.ReportMetric(float64(seeded), "links")
		})
	}
}
