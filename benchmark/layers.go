package main

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"time"

	"fubar"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/measure"
	"fubar/internal/mpls"
	"fubar/internal/pathgen"
	"fubar/internal/sdnsim"
)

// layerTimer times direct calls into a layer's public functions and
// files the medians under their metric names. Each sample is the mean
// of a batch, sized so one sample lasts long enough for the clock's own
// cost not to show; sampling stops after calls calls or budget of wall
// time, whichever comes first (never before three samples). The first
// error any timed call returns is kept in err.
type layerTimer struct {
	budget time.Duration
	calls  int
	m      map[string]float64
	err    error
}

// time stores under name the median duration of one f() call, in the
// unit conv converts to. prep, if not nil, runs untimed before every
// batch.
func (t *layerTimer) time(name string, conv func(time.Duration) float64, batch int, prep func(), f func() error) {
	var samples []float64
	start := time.Now()
	for len(samples) < max(t.calls/batch, 3) && (len(samples) < 3 || time.Since(start) < t.budget) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil && t.err == nil {
				t.err = fmt.Errorf("%s: %w", name, err)
			}
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	t.m[name] = conv(time.Duration(median(samples)))
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// countingWriter counts what WriteEpochsJSONL writes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// layerMetrics measures every layer's public entry points directly on
// one workload's own instance: the same functions the spans enclose,
// called in isolation, so a layer's cost can be read without the layers
// around it. records feeds the epoch-stream encoder; findings collects
// anything that could not be measured.
func layerMetrics(topo *fubar.Topology, mat *fubar.Matrix, records []fubar.EpochRecord, sz sizes, findings *[]string) (map[string]float64, error) {
	t := &layerTimer{budget: sz.layerBudget, calls: sz.layerCalls, m: make(map[string]float64)}
	aggs := mat.Aggregates()
	var pairs []fubar.Aggregate
	for _, a := range aggs {
		if !a.IsSelfPair() {
			pairs = append(pairs, a)
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("layers: matrix has no backbone aggregates")
	}

	// pathgen: lowest-delay search (a fresh generator per batch and
	// distinct pairs within it, so its cache never answers), the §2.4
	// alternative trio under a congested mask, and the k-lowest-delay
	// enumeration.
	var gen *pathgen.Generator
	i := 0
	fresh := func() {
		i = 0
		var err error
		if gen, err = pathgen.New(topo, pathgen.Policy{}); err != nil && t.err == nil {
			t.err = err
		}
	}
	if fresh(); t.err != nil {
		return nil, t.err
	}
	next := func() fubar.Aggregate { i++; return pairs[i%len(pairs)] }
	sweep := min(len(pairs), 64)
	t.time("pathgen.lowest_delay_us", us, sweep, fresh, func() error {
		a := next()
		gen.LowestDelay(a.Src, a.Dst)
		return nil
	})
	congested := make([]bool, topo.NumLinks())
	for l := 0; l < topo.NumLinks(); l += 7 {
		congested[l] = true
	}
	t.time("pathgen.alternatives_us", us, sweep, fresh, func() error {
		a := next()
		gen.Alternatives(pathgen.Request{
			Src: a.Src, Dst: a.Dst,
			CongestedAll: congested, CongestedUsed: congested, MostCongested: 0,
		})
		return nil
	})
	t.time("pathgen.k_lowest_delay_us", us, min(sweep, 8), fresh, func() error {
		a := next()
		gen.KLowestDelay(a.Src, a.Dst, 4)
		return nil
	})

	// flowmodel: model build, full water-filling, base capture.
	var model *flowmodel.Model
	t.time("flowmodel.new_ms", ms, 1, nil, func() (err error) {
		model, err = flowmodel.New(topo, mat)
		return err
	})
	if t.err != nil {
		return nil, t.err
	}
	// The all-on-lowest-delay placement every cold run starts from.
	start, _, err := core.RepairWarmStart(topo, mat, nil, pathgen.Policy{}, 0)
	if err != nil {
		return nil, err
	}
	eval := model.NewEval()
	t.time("flowmodel.evaluate_full_us", us, 1, nil, func() error { eval.Evaluate(start); return nil })
	base := new(flowmodel.Base)
	t.time("flowmodel.evaluate_base_us", us, 1, nil, func() error { eval.EvaluateBase(start, base); return nil })

	// flowmodel delta scoring, timed candidate by candidate inside a
	// real, step-capped optimization. Every candidate also pays a full
	// evaluation there, so big instances get fewer steps.
	placed := start
	steps := max(min(sz.benchSteps, sz.benchSteps*200/len(aggs)), 2)
	if cb, err := core.RunCandidateBench(model, core.Options{MaxSteps: steps}); err != nil {
		*findings = append(*findings, fmt.Sprintf("flowmodel.delta_* not measured: %v", err))
		for _, k := range []string{"flowmodel.delta_utility_us", "flowmodel.delta_full_us", "flowmodel.delta_fallback_frac", "flowmodel.affected_frac"} {
			t.m[k] = 0
		}
	} else {
		if !cb.Identical {
			return nil, fmt.Errorf("layers: full, delta and utility-only candidate scores disagree")
		}
		t.m["flowmodel.delta_utility_us"] = us(time.Duration(cb.MedianUtilNs()))
		t.m["flowmodel.delta_full_us"] = us(time.Duration(cb.MedianDeltaNs()))
		t.m["flowmodel.delta_fallback_frac"] = ratio(float64(cb.Delta.Fallbacks), float64(cb.Delta.Calls))
		t.m["flowmodel.affected_frac"] = ratio(float64(cb.Delta.AffectedBundles), float64(cb.Delta.ListBundles))
		placed = cb.Solution.Bundles
	}

	// core: optimizer construction, and warm-start repair of a real
	// allocation.
	t.time("core.new_ms", ms, 1, nil, func() error {
		_, err := core.New(model, core.Options{})
		return err
	})
	t.time("core.repair_warm_start_us", us, 1, nil, func() error {
		_, _, err := core.RepairWarmStart(topo, mat, placed, pathgen.Policy{}, 0)
		return err
	})

	// ctrlplane wire codec on a FlowMod of this instance's mean
	// per-switch rule count.
	mod := ctrlplane.FlowMod{Generation: 1}
	for _, b := range placed[:max(1, len(placed)/topo.NumNodes())] {
		links := make([]uint32, len(b.Edges))
		for j, e := range b.Edges {
			links[j] = uint32(e)
		}
		mod.Rules = append(mod.Rules, ctrlplane.Rule{Agg: int32(b.Agg), Flows: uint32(b.Flows), Links: links})
	}
	var wire bytes.Buffer
	t.time("ctrlplane.wire_encode_ns", ns, 64, nil, func() error {
		wire.Reset()
		return ctrlplane.WriteMessage(&wire, mod)
	})
	t.m["ctrlplane.wire_bytes_per_flowmod"] = float64(wire.Len())
	frame := slices.Clone(wire.Bytes())
	rd := bytes.NewReader(frame)
	br := bufio.NewReader(rd)
	t.time("ctrlplane.wire_decode_ns", ns, 64, nil, func() error {
		rd.Reset(frame)
		br.Reset(rd)
		_, err := ctrlplane.ReadMessage(br)
		return err
	})

	// The closed loop's environment: one simulated measurement epoch,
	// folding its counters into the estimator, building the estimated
	// matrix, and pricing a make-before-break transition.
	sim, err := sdnsim.New(topo, mat, sdnsim.Config{Seed: 1})
	if err != nil {
		return nil, err
	}
	if err := sim.Install(placed); err != nil {
		return nil, err
	}
	var stats *sdnsim.EpochStats
	t.time("sdnsim.run_epoch_us", us, 1, nil, func() (err error) {
		stats, err = sim.RunEpoch()
		return err
	})
	if t.err != nil {
		return nil, t.err
	}
	est := measure.NewEstimator(measure.KeysFromMatrix(mat))
	t.time("measure.observe_us", us, 1, nil, func() error { return est.Observe(stats) })
	t.time("measure.matrix_us", us, 1, nil, func() error {
		_, err := est.Matrix(topo)
		return err
	})
	old := reserved(start, eval.Evaluate(start).BundleRate)
	next2 := reserved(placed, eval.Evaluate(placed).BundleRate)
	t.time("mpls.plan_transition_us", us, 1, nil, func() error { mpls.PlanTransition(topo, old, next2); return nil })

	// The daemon's epoch-stream encoder on this workload's own epoch
	// records (a cold workload has none: one is made up from its sizes).
	if len(records) == 0 {
		records = []fubar.EpochRecord{{
			Aggregates: len(aggs), Flows: mat.TotalFlows(), DemandKbps: float64(mat.TotalDemand()),
			StaleUtility: 0.5, Utility: 0.75, Steps: 50, StopReason: "no-congestion",
			PathsChanged: len(aggs), FlowsMoved: mat.TotalFlows(), FlowMods: len(aggs),
		}}
	}
	records = records[:min(len(records), 64)]
	var cw countingWriter
	t.time("daemon.write_epochs_ns_per_epoch", func(d time.Duration) float64 { return ns(d) / float64(len(records)) }, 1, nil, func() error {
		cw.n = 0
		_, err := fubar.WriteEpochsJSONL(&cw, func(yield func(fubar.EpochRecord, error) bool) {
			for _, er := range records {
				if !yield(er, nil) {
					return
				}
			}
		})
		return err
	})
	t.m["daemon.bytes_per_epoch"] = float64(cw.n) / float64(len(records))
	return t.m, t.err
}

// reserved turns an allocation into the reservations PlanTransition
// prices, keyed by aggregate.
func reserved(bundles []flowmodel.Bundle, rates []float64) []mpls.ReservedPath {
	out := make([]mpls.ReservedPath, 0, len(bundles))
	for i, b := range bundles {
		if len(b.Edges) > 0 {
			out = append(out, mpls.ReservedPath{Key: int64(b.Agg), Edges: append([]graph.EdgeID(nil), b.Edges...), Rate: rates[i]})
		}
	}
	return out
}
