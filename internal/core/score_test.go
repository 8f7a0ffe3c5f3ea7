package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/instance"
)

// exactScore is a probe that scores every candidate exactly (bound −Inf):
// the scores the selection loop would see if no comparison were settled
// from an interval.
func exactScore(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, _ float64) float64 {
	u, _ := w.eval.EvaluateDeltaUtility(sc, buf, changed, math.Inf(-1))
	return u
}

// coldScaleS is benchmark/'s first cold-scale-s instance: the catalogue's
// scale-s topology of seed 1 under its first 1500-aggregate matrix.
func coldScaleS(t *testing.T) *flowmodel.Model {
	t.Helper()
	p, err := instance.ScalePresetByName("scale-s")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := p.Topology(1)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := p.Matrix(topo, 1)
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
// optimizer, trusting nothing about how a score was reached: on the 150
// even seeds of the refutation property's random sparse instances at
// Workers 1, and on cold scale-s at Workers 1 and 4, every candidate's
// stored score is its exact utility bit for bit when that beats the bound
// it was scored against, and otherwise lies between the two; and the run
// commits what a run scoring every candidate exactly commits. Both kinds of score must
// occur, and on scale-s the serial bound — the selection threshold at each
// candidate — must settle more scores than the parallel one.
func TestBoundedScoresKeepTheContract(t *testing.T) {
	ctx := context.Background()
	var scored, above, settled [2]atomic.Int64 // by Workers 1, 4
	var scaleS [2]float64                      // share settled on scale-s, by Workers 1, 4
	// run scores one instance at one worker count, returning the share of
	// its scores the bound settled.
	run := func(t *testing.T, name string, model func() *flowmodel.Model, workers int) float64 {
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
					t.Errorf("%s: utility %v beats the bound %v, scored %v", name, exact, bound, got)
				}
			case got < exact || got > bound:
				t.Errorf("%s: score %v outside [%v, %v] (utility, bound)", name, got, exact, bound)
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
		sameOutcome(t, name, got, want)
		return float64(settled[wi].Load()-settledBefore) / float64(scored[wi].Load()-scoredBefore)
	}
	t.Run("sparse", func(t *testing.T) {
		for seed := int64(2); seed <= 300; seed += 2 {
			run(t, fmt.Sprintf("sparse seed %d", seed), func() *flowmodel.Model { return sparseInstance(t, seed) }, 1)
		}
	})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("scale-s/workers-%d", workers), func(t *testing.T) {
			scaleS[workers/4] = run(t, "cold scale-s", func() *flowmodel.Model { return coldScaleS(t) }, workers)
		})
	}
	t.Logf("workers 1: %d scores, %d above their bound, %d settled by it; workers 4: %d, %d, %d; on scale-s %.1f%% and %.1f%% settled",
		scored[0].Load(), above[0].Load(), settled[0].Load(), scored[1].Load(), above[1].Load(), settled[1].Load(), 100*scaleS[0], 100*scaleS[1])
	if above[0].Load() == 0 || above[1].Load() == 0 || settled[0].Load() == 0 || settled[1].Load() == 0 || scaleS[0] <= scaleS[1] {
		t.Error("an outcome the contract covers did not occur, or the serial bound settled no more than the parallel one")
	}
}

// TestCommitNotAsScoredEndsTheRun: a committed candidate scored above its
// bound, so its score is its exact utility, and an evaluation of the
// committed list that differs by one bit ends the run with an error. A
// probe that scores every move one ulp above its utility plants the
// mismatch, which nothing else in the run would notice.
func TestCommitNotAsScoredEndsTheRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, _, m := propInstance(t, 5)
		o, err := New(m, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		o.probe = func(w *worker, buf []flowmodel.Bundle, changed []int, sc *flowmodel.Closure, bound float64) float64 {
			return math.Nextafter(exactScore(w, buf, changed, sc, bound), math.Inf(1))
		}
		sol, err := o.Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), "committed move") {
			t.Fatalf("workers %d: run with mis-scored commits returned %v, %v", workers, sol, err)
		}
	}
}
