package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// exactScore is a probe that scores every candidate exactly (bound −Inf):
// the scores the selection loop would see if no comparison were settled
// from an interval.
func exactScore(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, _ float64) float64 {
	u, _ := w.eval.EvaluateDeltaUtility(sc, buf, changed, math.Inf(-1))
	return u
}

// coldScaleS is benchmark/'s first cold-scale-s instance (the scale-s
// preset of internal/scenario, which imports this package): the 100-node
// Waxman topology of seed 1 under its first 1500-aggregate matrix.
func coldScaleS(t *testing.T) *flowmodel.Model {
	t.Helper()
	topo, err := topology.Waxman(100, 0.25, 0.15, 16*unit.Mbps, 50*unit.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(1)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, 1500)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// TestBoundedScoresKeepTheContract states the scoring contract at the
// optimizer, trusting nothing about how a score was reached: on 300 random
// sparse instances (Workers 1 and 4 alternating, as the refutation property
// does) and on cold scale-s at both, every candidate's stored score is its
// exact utility bit for bit when that beats the bound it was scored
// against, and otherwise lies between the two; and the run commits what a
// run scoring every candidate exactly commits. Both kinds of score must
// occur, and on scale-s the serial bound — the selection threshold at each
// candidate — must settle more scores than the parallel one.
func TestBoundedScoresKeepTheContract(t *testing.T) {
	ctx := context.Background()
	var scored, above, settled [2]atomic.Int64 // by Workers 1, 4
	var scaleS [2]float64                      // share settled on scale-s, by Workers 1, 4
	for seed := int64(1); seed <= 301; seed++ {
		name := fmt.Sprintf("sparse seed %d", seed)
		model := func() *flowmodel.Model { return sparseInstance(t, seed) }
		workerCounts := []int{1 + int(seed%2)*3}
		if seed == 301 {
			name, model = "cold scale-s", func() *flowmodel.Model { return coldScaleS(t) }
			workerCounts = []int{1, 4}
		}
		for _, workers := range workerCounts {
			wi := workers / 4
			scoredBefore, settledBefore := scored[wi].Load(), settled[wi].Load()
			o, err := New(model(), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			o.probe = func(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, bound float64) float64 {
				got, _ := w.eval.EvaluateDeltaUtility(sc, buf, changed, bound)
				exact := exactScore(w, buf, changed, sc, bound)
				scored[wi].Add(1)
				switch {
				case exact > bound:
					above[wi].Add(1)
					if math.Float64bits(got) != math.Float64bits(exact) {
						t.Errorf("%s, workers %d: utility %v beats the bound %v, scored %v", name, workers, exact, bound, got)
					}
				case got < exact || got > bound:
					t.Errorf("%s, workers %d: score %v outside [%v, %v] (utility, bound)", name, workers, got, exact, bound)
				case got != exact:
					settled[wi].Add(1)
				}
				return got
			}
			got, err := o.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref, err := New(model(), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref.probe = exactScore
			want, err := ref.Run(ctx)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameOutcome(t, fmt.Sprintf("%s, workers %d", name, workers), got, want)
			if seed == 301 {
				scaleS[wi] = float64(settled[wi].Load()-settledBefore) / float64(scored[wi].Load()-scoredBefore)
			}
		}
	}
	t.Logf("workers 1: %d scores, %d above their bound, %d settled by it; workers 4: %d, %d, %d; on scale-s %.1f%% and %.1f%% settled",
		scored[0].Load(), above[0].Load(), settled[0].Load(), scored[1].Load(), above[1].Load(), settled[1].Load(), 100*scaleS[0], 100*scaleS[1])
	if above[0].Load() == 0 || above[1].Load() == 0 || settled[0].Load() == 0 || settled[1].Load() == 0 || scaleS[0] <= scaleS[1] {
		t.Error("an outcome the contract covers did not occur, or the serial bound settled no more than the parallel one")
	}
}
