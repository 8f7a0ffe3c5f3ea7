// Package baseline implements the reference points FUBAR is evaluated
// against in §3 of the paper:
//
//   - shortest-path routing (the paper's lower bound — FUBAR's starting
//     allocation);
//   - the isolation upper bound ("upper bound" curves): each aggregate's
//     utility if it were alone in the network.
package baseline

import (
	"fmt"

	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// Outcome is an allocation plus its model evaluation.
type Outcome struct {
	Bundles []flowmodel.Bundle
	// Result is a deep copy owned by the caller.
	Result  *flowmodel.Result
	Utility float64
}

// evaluate runs the model over an allocation on an arena of its own.
func evaluate(model *flowmodel.Model, bundles []flowmodel.Bundle) *Outcome {
	res := model.NewEval().Evaluate(bundles)
	return &Outcome{Bundles: bundles, Result: res.Clone(), Utility: res.NetworkUtility}
}

// ShortestPath routes every aggregate entirely over its lowest-delay
// policy-compliant path and evaluates the model — the paper's
// "shortest path" reference line.
func ShortestPath(model *flowmodel.Model, policy pathgen.Policy) (*Outcome, error) {
	if model == nil {
		return nil, fmt.Errorf("baseline: nil model")
	}
	gen, err := pathgen.New(model.Topology(), policy)
	if err != nil {
		return nil, err
	}
	mat := model.Matrix()
	var bundles []flowmodel.Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := gen.LowestDelay(a.Src, a.Dst)
		if !ok {
			return nil, fmt.Errorf("baseline: no compliant path for aggregate %d", a.ID)
		}
		bundles = append(bundles, flowmodel.NewBundle(model.Topology(), a.ID, a.Flows, p))
	}
	return evaluate(model, bundles), nil
}

// UpperBoundResult carries the isolation bound.
type UpperBoundResult struct {
	// PerAggregate is each aggregate's utility alone in the network.
	PerAggregate []float64
	// Mean is the weight*flows weighted mean — the paper's "upper bound"
	// line.
	Mean float64
}

// UpperBound computes §3's upper bound: for each aggregate, remove all
// other traffic and compute the utility it would get. With every link far
// larger than a single aggregate's demand (the paper's regime) this is the
// delay component at the lowest-delay path; when a lone aggregate still
// overflows its best path, the bound considers splitting across the k=4
// lowest-delay paths in delay order, which upper-bounds what the optimizer
// itself could reach.
func UpperBound(topo *topology.Topology, mat *traffic.Matrix, policy pathgen.Policy) (*UpperBoundResult, error) {
	if topo == nil || mat == nil {
		return nil, fmt.Errorf("baseline: nil topology or matrix")
	}
	gen, err := pathgen.New(topo, policy)
	if err != nil {
		return nil, err
	}
	out := &UpperBoundResult{PerAggregate: make([]float64, mat.NumAggregates())}
	var sumW, sum float64
	for _, a := range mat.Aggregates() {
		u, err := isolatedUtility(topo, gen, a)
		if err != nil {
			return nil, err
		}
		out.PerAggregate[a.ID] = u
		w := a.Weight * float64(a.Flows)
		sumW += w
		sum += u * w
	}
	if sumW > 0 {
		out.Mean = sum / sumW
	}
	return out, nil
}

// isolatedUtility computes one aggregate's utility alone in the network.
func isolatedUtility(topo *topology.Topology, gen *pathgen.Generator, a traffic.Aggregate) (float64, error) {
	if a.IsSelfPair() {
		return 1, nil
	}
	perFlow := float64(a.DemandPerFlow())
	paths := gen.KLowestDelay(a.Src, a.Dst, 4)
	if len(paths) == 0 {
		return 0, fmt.Errorf("baseline: no compliant path for aggregate %d", a.ID)
	}
	// Fast path: everything fits on the lowest-delay path.
	best := paths[0]
	if float64(topo.PathBottleneck(best)) >= perFlow*float64(a.Flows) {
		return a.Fn.Eval(a.DemandPerFlow(), topo.PathRTT(best)), nil
	}
	// Greedy fill in delay order: give each path as many fully-satisfied
	// flows as its bottleneck allows; leftover flows share the last
	// path's residual. Paths are disjoint in the bound's accounting,
	// which can only overestimate — acceptable for an upper bound.
	remaining := a.Flows
	var utilSum float64
	for i, p := range paths {
		if remaining == 0 {
			break
		}
		cap := float64(topo.PathBottleneck(p))
		fit := int(cap / perFlow)
		if fit > remaining {
			fit = remaining
		}
		delay := topo.PathRTT(p)
		utilSum += float64(fit) * a.Fn.Eval(a.DemandPerFlow(), delay)
		remaining -= fit
		if i == len(paths)-1 && remaining > 0 {
			// Leftover flows squeeze into this path's residual share.
			residual := cap - float64(fit)*perFlow
			per := residual / float64(remaining)
			if per < 0 {
				per = 0
			}
			utilSum += float64(remaining) * a.Fn.Eval(unit.Bandwidth(per), delay)
			remaining = 0
		}
	}
	return utilSum / float64(a.Flows), nil
}
