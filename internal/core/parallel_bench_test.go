package core

import (
	"context"
	"fmt"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// benchOptimizer builds an optimizer over the bundled congested ring
// instance, primed to the state step() sees on the first pass: initial
// allocation placed, model evaluated, congested links ranked.
func benchOptimizer(b *testing.B, workers int) (*Optimizer, float64, []graph.EdgeID, []graph.EdgeID) {
	b.Helper()
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 1)
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
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(model, Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	if err := o.initAllocation(nil); err != nil {
		b.Fatal(err)
	}
	o.baseEval, o.base = o.model.NewEval(), &flowmodel.Base{}
	res := o.baseEval.Evaluate(o.buildStepBundles())
	if len(res.Congested) == 0 {
		b.Fatal("bench instance is not congested")
	}
	congested := append([]graph.EdgeID(nil), res.Congested...)
	links := o.model.CongestedByOversubscription(res)
	return o, res.NetworkUtility, congested, links
}

// BenchmarkStepCandidates measures one step's candidate fan-out — collect
// plus evaluation over the most congested link — at several worker counts
// and both candidate-evaluation strategies, incremental scoring and the
// full-evaluation oracle. This is the optimizer's hot path; incremental vs
// full is the headline algorithmic speedup, the worker scaling the
// concurrency one (it saturates at the core count).
func BenchmarkStepCandidates(b *testing.B) {
	for _, full := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("eval=%s/workers=%d", evalName[full], workers), func(b *testing.B) {
				o, u, congested, links := benchOptimizer(b, workers)
				o.fullEval = full
				if !full {
					// Run's initial evaluation is the base capture.
					o.captureBase(o.buildStepBundles())
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cands, _, _, grew := o.collectCandidates(links[0], congested, moveFraction)
					if len(cands) == 0 {
						b.Fatal("no candidates collected")
					}
					// Mirror step(): both paths patch the dense list, the
					// delta one against the carried-over base.
					base := o.prepareBase(grew)
					o.evaluateCandidates(cands, o.denseBuf, base, u)
					// Selection without commit keeps every iteration identical.
					best := u
					for j := range cands {
						if cands[j].utility > best+minGain {
							best = cands[j].utility
						}
					}
				}
			})
		}
	}
}

// BenchmarkRunWorkers measures a whole optimization end to end at several
// worker counts (benchmark/ records the same ratio as core.workers1_ratio).
func BenchmarkRunWorkers(b *testing.B) {
	topo, err := topology.Ring(10, 6, 1500*unit.Kbps, 1)
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
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model, err := flowmodel.New(topo, mat)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(context.Background(), model, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
