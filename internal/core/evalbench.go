package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"fubar/internal/flowmodel"
)

// benchWorkers is the worker count RunCandidateBench forces so the paired
// timings don't contend for the CPU.
const benchWorkers = 1

// CandidateBenchResult is RunCandidateBench's record: the paired
// per-candidate wall times of the full, incremental (full-Result) and
// utility-only evaluation strategies over one real optimization run, plus
// the differential verdict (every triple must produce bit-identical
// utility).
type CandidateBenchResult struct {
	// Solution is the completed run (committed with the delta utilities,
	// which equal the full ones bit for bit).
	Solution *Solution
	// FullNs, DeltaNs and UtilNs are the paired per-candidate evaluation
	// times of full Evaluate, EvaluateDelta and EvaluateDeltaUtility.
	FullNs  []int64
	DeltaNs []int64
	UtilNs  []int64
	// Identical reports whether every candidate's three utilities matched
	// exactly.
	Identical bool
	// Delta is the run's incremental-evaluation counters.
	Delta flowmodel.DeltaStats
}

// MedianDeltaNs and MedianUtilNs are the medians of the two incremental
// strategies' per-candidate times.
func (r *CandidateBenchResult) MedianDeltaNs() int64 { return medianNs(r.DeltaNs) }
func (r *CandidateBenchResult) MedianUtilNs() int64  { return medianNs(r.UtilNs) }

func medianNs(ns []int64) int64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// RunCandidateBench runs a full optimization with every candidate
// evaluated three ways — a full water-filling on a separate arena, a
// full-Result incremental delta, and an exact utility-only delta (bound
// −Inf; it drives the run) — timing each and asserting all three agree bit
// for bit. Only the scoring call is replaced: the run keeps its persistent
// base like any other, so the differential also covers remapped and
// rebased bases. Workers is forced to benchWorkers so the timings don't
// contend for the CPU.
func RunCandidateBench(model *flowmodel.Model, opts Options) (*CandidateBenchResult, error) {
	opts.Workers = benchWorkers
	o, err := New(model, opts)
	if err != nil {
		return nil, err
	}
	r := &CandidateBenchResult{Identical: true}
	full := model.NewEval()
	o.probe = func(w *worker, buf []flowmodel.Bundle, changed []int, base *flowmodel.Base, _ float64) float64 {
		// Rotate the measurement order per candidate: whichever path runs
		// later sees caches its predecessors warmed, so a fixed order
		// would systematically bias the comparison.
		var uFull, uDelta, uUtil float64
		var tFull, tDelta, tUtil time.Duration
		runFull := func() {
			t := time.Now()
			uFull = full.Evaluate(buf).NetworkUtility
			tFull = time.Since(t)
		}
		runDelta := func() {
			t := time.Now()
			uDelta = w.eval.EvaluateDelta(base, buf, changed).NetworkUtility
			tDelta = time.Since(t)
		}
		runUtil := func() {
			t := time.Now()
			uUtil, _ = w.eval.EvaluateDeltaUtility(base, buf, changed, math.Inf(-1))
			tUtil = time.Since(t)
		}
		switch len(r.FullNs) % 3 {
		case 0:
			runFull()
			runDelta()
			runUtil()
		case 1:
			runDelta()
			runUtil()
			runFull()
		default:
			runUtil()
			runFull()
			runDelta()
		}
		r.FullNs = append(r.FullNs, tFull.Nanoseconds())
		r.DeltaNs = append(r.DeltaNs, tDelta.Nanoseconds())
		r.UtilNs = append(r.UtilNs, tUtil.Nanoseconds())
		if uFull != uDelta || uFull != uUtil {
			r.Identical = false
		}
		return uUtil
	}
	sol, err := o.Run(context.Background())
	if err != nil {
		return nil, err
	}
	r.Solution = sol
	r.Delta = sol.Delta
	if len(r.FullNs) == 0 {
		return nil, fmt.Errorf("core: candidate bench run committed no trial evaluations (instance not congested)")
	}
	return r, nil
}
