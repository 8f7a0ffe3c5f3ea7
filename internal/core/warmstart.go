package core

import (
	"cmp"
	"fmt"
	"slices"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// RepairStats summarizes what RepairWarmStart had to change to make an
// installed allocation a valid warm start for a new instance.
type RepairStats struct {
	// DroppedBundles counts bundles removed outright: dead or forbidden
	// paths, paths that no longer validate on the new graph, unknown
	// aggregates, non-positive flow counts.
	DroppedBundles int
	// MovedFlows counts flows the repair re-placed: flows displaced from
	// dropped or folded paths, which rejoin the aggregate's surviving
	// paths (or its lowest-delay path when nothing survived).
	MovedFlows int
	// ReroutedAggregates counts aggregates whose installed paths were all
	// invalid, so their entire demand moved to the lowest-delay
	// policy-compliant path.
	ReroutedAggregates int
	// RescaledAggregates counts aggregates whose surviving paths carried
	// a different total than the new matrix demands, fixed by a
	// largest-remainder proportional rescale.
	RescaledAggregates int
}

// RepairWarmStart makes an installed allocation a valid warm start for a
// new (topology, matrix) instance, so RunWarm's initial allocation never
// fails validation after a demand or topology event. It generalizes the
// failover recovery logic: bundles whose paths cross a forbidden link
// (policy.ForbiddenLinks — typically failed links) or no longer validate
// on the new graph are dropped and their flows moved to the aggregate's
// surviving paths; each aggregate's total is rescaled to the new
// matrix's flow count by largest remainder; aggregates left with no
// valid path fall back to their lowest-delay policy-compliant path.
// Bundles must already be keyed to the new matrix's aggregate IDs —
// bundles referencing unknown aggregates are dropped, not an error.
//
// maxPaths must match the Options.MaxPathsPerAggregate of the run the
// result warm-starts (0 means the default); surviving paths are capped
// below it so the lowest-delay path can always join the path set.
//
// The repair is deterministic: equal inputs yield the identical bundle
// list. The returned error is reserved for genuinely unroutable
// aggregates (no policy-compliant path at all), which would fail the
// optimizer's own initialization regardless of warm start.
func RepairWarmStart(topo *topology.Topology, mat *traffic.Matrix, bundles []flowmodel.Bundle,
	policy pathgen.Policy, maxPaths int) ([]flowmodel.Bundle, RepairStats, error) {

	gen, err := pathgen.New(topo, policy)
	if err != nil {
		return nil, RepairStats{}, err
	}
	var r repairScratch
	return r.run(gen, topo, mat, bundles, policy, maxPaths)
}

// RepairWarmStart is the package function on the instance the optimizer is
// bound to, asking the optimizer's own path generator — what a replay
// calls between Rebind and RunWarm, so the lowest-delay paths the repair
// looks up are the ones the run's first step finds memoised. It repairs
// into scratch the optimizer keeps: the returned list is valid until the
// next RepairWarmStart on this optimizer, which overwrites it. bundles may
// be that list — the repair reads all of its input before it writes any
// output.
func (o *Optimizer) RepairWarmStart(bundles []flowmodel.Bundle) ([]flowmodel.Bundle, RepairStats, error) {
	return o.repair.run(o.gen, o.model.Topology(), o.mat, bundles, o.opts.Policy, o.opts.MaxPathsPerAggregate)
}

// keptPath is one surviving installed path of an aggregate, with the flows
// the repair leaves on it.
type keptPath struct {
	edges []graph.EdgeID
	delay unit.Delay
	flows int
}

// repairRem is one kept path's remainder in the largest-remainder rescale.
type repairRem struct{ idx, rem int }

// repairScratch is what one repair rewrites from empty: the surviving paths
// of every aggregate, the flows displaced from each, the rescale's
// remainders, and the repaired list itself. The package function repairs
// into a zero scratch, so its list is the caller's; an optimizer keeps one
// (Optimizer.repair), so its list lives until the next repair.
type repairScratch struct {
	kept      [][]keptPath
	displaced []int
	rems      []repairRem
	out       []flowmodel.Bundle
}

// run repairs against gen, a generator over topo and policy.
func (r *repairScratch) run(gen *pathgen.Generator, topo *topology.Topology, mat *traffic.Matrix, bundles []flowmodel.Bundle,
	policy pathgen.Policy, maxPaths int) ([]flowmodel.Bundle, RepairStats, error) {

	if maxPaths <= 0 {
		maxPaths = Options{}.withDefaults().MaxPathsPerAggregate
	}

	n := mat.NumAggregates()
	if len(r.kept) < n {
		r.kept = append(r.kept, make([][]keptPath, n-len(r.kept))...)
	}
	for i := range r.kept { // rows past n too: they keep no dropped path alive
		clear(r.kept[i])
		r.kept[i] = r.kept[i][:0]
	}
	kept := r.kept[:n]
	r.displaced = append(r.displaced[:0], make([]int, n)...)
	displaced := r.displaced
	var stats RepairStats
	forb := policy.ForbiddenLinks
	nLinks := topo.NumLinks()
	// invalidEdges pre-screens paths Validate would reject or panic on:
	// out-of-range IDs (links removed outright) and forbidden links.
	invalidEdges := func(edges []graph.EdgeID) bool {
		for _, e := range edges {
			if int(e) < 0 || int(e) >= nLinks {
				return true
			}
			if int(e) < len(forb) && forb[e] {
				return true
			}
		}
		return false
	}

	for _, b := range bundles {
		if int(b.Agg) < 0 || int(b.Agg) >= n || b.Flows <= 0 {
			stats.DroppedBundles++
			continue
		}
		a := mat.Aggregate(b.Agg)
		if a.IsSelfPair() {
			continue // self-pairs carry no routed state; core re-derives them
		}
		p := graph.Path{Edges: b.Edges}
		if p.Empty() || invalidEdges(b.Edges) || p.Validate(topo.Graph(), a.Src, a.Dst) != nil {
			stats.DroppedBundles++
			displaced[b.Agg] += b.Flows
			continue
		}
		merged := false
		for i := range kept[b.Agg] {
			if (graph.Path{Edges: kept[b.Agg][i].edges}).Equal(p) {
				kept[b.Agg][i].flows += b.Flows
				merged = true
				break
			}
		}
		if !merged {
			kept[b.Agg] = append(kept[b.Agg], keptPath{
				edges: b.Edges, delay: topo.PathDelay(p), flows: b.Flows,
			})
		}
	}

	out := slices.Grow(r.out[:0], len(bundles))
	for i := 0; i < n; i++ {
		a := mat.Aggregate(traffic.AggregateID(i))
		if a.IsSelfPair() {
			// Re-emit self-pair state so the repaired list is a complete,
			// directly evaluable allocation (self-pairs count utility 1).
			out = append(out, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		target := a.Flows
		ks := kept[i]
		if len(ks) == 0 {
			// Nothing survived (or the aggregate is new): everything goes
			// on the lowest-delay compliant path, exactly where the
			// optimizer's cold initialization would put it.
			p, ok := gen.LowestDelay(a.Src, a.Dst)
			if !ok {
				return nil, stats, fmt.Errorf("core: repair: no policy-compliant path for aggregate %d (%s->%s)",
					a.ID, topo.NodeName(a.Src), topo.NodeName(a.Dst))
			}
			if displaced[i] > 0 {
				stats.ReroutedAggregates++
				stats.MovedFlows += displaced[i]
			}
			out = append(out, flowmodel.Bundle{
				Agg: a.ID, Flows: target, Edges: p.Edges, Delay: topo.PathDelay(p),
			})
			continue
		}
		// Cap surviving paths so the warm start plus the always-present
		// lowest-delay path fits the run's path-set limit. Largest
		// carriers win; the tail's flows fold into the largest.
		slices.SortStableFunc(ks, func(x, y keptPath) int { return cmp.Compare(y.flows, x.flows) })
		limit := maxPaths
		lp, lok := gen.LowestDelay(a.Src, a.Dst)
		if lok {
			found := false
			for _, k := range ks {
				if (graph.Path{Edges: k.edges}).Equal(lp) {
					found = true
					break
				}
			}
			if !found {
				limit = maxPaths - 1
			}
		}
		if limit < 1 {
			// The path budget only fits the lowest-delay path (maxPaths=1
			// and nothing surviving is it): fold the whole aggregate there,
			// or the warm start would overflow the optimizer's path set.
			for _, k := range ks {
				stats.DroppedBundles++
				stats.MovedFlows += k.flows
			}
			stats.MovedFlows += displaced[i]
			stats.ReroutedAggregates++
			out = append(out, flowmodel.Bundle{
				Agg: a.ID, Flows: target, Edges: lp.Edges, Delay: topo.PathDelay(lp),
			})
			continue
		}
		if len(ks) > limit {
			for _, k := range ks[limit:] {
				ks[0].flows += k.flows
				stats.DroppedBundles++
				stats.MovedFlows += k.flows
			}
			ks = ks[:limit]
		}
		total := 0
		for _, k := range ks {
			total += k.flows
		}
		stats.MovedFlows += displaced[i] // displaced flows rejoin via the rescale
		if total != target {
			// Largest-remainder proportional rescale, all in integers so
			// the result is exact and deterministic.
			stats.RescaledAggregates++
			rems := r.rems[:0]
			assigned := 0
			for j := range ks {
				num := target * ks[j].flows
				ks[j].flows = num / total
				rems = append(rems, repairRem{idx: j, rem: num % total})
				assigned += ks[j].flows
			}
			r.rems = rems
			slices.SortStableFunc(rems, func(x, y repairRem) int { return cmp.Compare(y.rem, x.rem) })
			for j := 0; assigned < target; j++ {
				ks[rems[j%len(rems)].idx].flows++
				assigned++
			}
		}
		for _, k := range ks {
			if k.flows <= 0 {
				continue
			}
			out = append(out, flowmodel.Bundle{
				Agg: a.ID, Flows: k.flows, Edges: k.edges, Delay: k.delay,
			})
		}
	}
	r.out = out
	return out, stats, nil
}
