// Package verify states what a right answer is, independently of the code
// that computes it. Allocation checks that a bundle list places every
// aggregate's flows exactly once over paths the network has and the policy
// allows; MaxMin checks bundle rates against the certificate of a weighted
// max-min fair allocation with demand caps — FUBAR's traffic model (§2.3) —
// from the rates alone, without running a fill.
//
// The package reads only the topology, the matrix, the bundles and the
// rates. It imports flowmodel for the Bundle type and calls none of its
// functions, and it imports no optimizer, path generator, baseline or
// replay code, so a fault there cannot hide in the check.
package verify

import (
	"fmt"
	"math"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// Allocation returns nil when bundles is a valid allocation of mat over
// topo under the forbidden-link mask (indexed by link; nil or short masks
// forbid nothing beyond their length): every bundle names an aggregate of
// mat and carries a positive number of flows; its edges form a walk from
// the aggregate's source to its destination over links of topo that are
// not forbidden (a self-pair's bundle has no edges); and each aggregate's
// bundles carry exactly its flows. Otherwise it names the first violation.
func Allocation(topo *topology.Topology, mat *traffic.Matrix, bundles []flowmodel.Bundle, forbidden []bool) error {
	placed := make([]int, mat.NumAggregates())
	for i, b := range bundles {
		if b.Agg < 0 || int(b.Agg) >= len(placed) {
			return fmt.Errorf("bundle %d: aggregate %d not in the matrix of %d", i, b.Agg, len(placed))
		}
		if b.Flows <= 0 {
			return fmt.Errorf("bundle %d (aggregate %d): %d flows", i, b.Agg, b.Flows)
		}
		a := mat.Aggregate(b.Agg)
		at := a.Src
		for k, e := range b.Edges {
			if e < 0 || int(e) >= topo.NumLinks() {
				return fmt.Errorf("bundle %d (aggregate %d): edge %d is link %d, not in the topology", i, b.Agg, k, e)
			}
			if int(e) < len(forbidden) && forbidden[e] {
				return fmt.Errorf("bundle %d (aggregate %d): edge %d is forbidden link %d", i, b.Agg, k, e)
			}
			l := topo.Link(e)
			if l.From != at {
				return fmt.Errorf("bundle %d (aggregate %d): edge %d leaves node %d, the walk is at node %d", i, b.Agg, k, l.From, at)
			}
			at = l.To
		}
		if a.IsSelfPair() && len(b.Edges) > 0 {
			return fmt.Errorf("bundle %d (self-pair aggregate %d): %d edges, want none", i, b.Agg, len(b.Edges))
		}
		if at != a.Dst {
			return fmt.Errorf("bundle %d (aggregate %d): %d-edge path from node %d ends at node %d, want node %d", i, b.Agg, len(b.Edges), a.Src, at, a.Dst)
		}
		placed[b.Agg] += b.Flows
	}
	for id, n := range placed {
		if want := mat.Aggregate(traffic.AggregateID(id)).Flows; n != want {
			return fmt.Errorf("aggregate %d: bundles carry %d flows, want %d", id, n, want)
		}
	}
	return nil
}

// MaxMin returns nil when rates, one per bundle, are a weighted max-min fair
// allocation with demand caps (Bertsekas & Gallager, Data Networks, §6.5),
// at relative tolerance eps: no link carries more than its capacity, no
// bundle gets more than its demand, and every bundle under its demand has a
// bottleneck — a saturated link on its path where its rate per unit of
// weight is the largest of the link's crossers. A bundle's weight is its
// flows over its round-trip time (twice its path's one-way delay, floored at
// 1 ms), its demand its flows times its aggregate's per-flow demand.
// Otherwise it names the first violation.
func MaxMin(topo *topology.Topology, mat *traffic.Matrix, bundles []flowmodel.Bundle, rates []float64, eps float64) error {
	nL := topo.NumLinks()
	load := make([]float64, nL)
	peak := make([]float64, nL) // per link: the largest rate per weight of a crosser
	norm := make([]float64, len(bundles))
	active := func(b flowmodel.Bundle) bool {
		return b.Flows > 0 && len(b.Edges) > 0 && mat.Aggregate(b.Agg).DemandPerFlow() > 0
	}
	for i, b := range bundles {
		demand := float64(mat.Aggregate(b.Agg).DemandPerFlow()) * float64(b.Flows)
		if r := rates[i]; r < 0 || r > demand*(1+eps) {
			return fmt.Errorf("bundle %d: rate %v outside [0, demand %v]", i, r, demand)
		}
		if !active(b) {
			continue
		}
		var delay float64
		for _, l := range b.Edges {
			delay += float64(topo.Delay(l))
		}
		norm[i] = rates[i] / (float64(b.Flows) / math.Max(2*delay, 1))
		for _, l := range b.Edges {
			load[l] += rates[i]
			peak[l] = math.Max(peak[l], norm[i])
		}
	}
	capacity := func(l int) float64 { return float64(topo.Capacity(topology.LinkID(l))) }
	for l := range load {
		if load[l] > capacity(l)*(1+eps) {
			return fmt.Errorf("link %d: load %v over capacity %v", l, load[l], capacity(l))
		}
	}
	for i, b := range bundles {
		demand := float64(mat.Aggregate(b.Agg).DemandPerFlow()) * float64(b.Flows)
		if !active(b) || rates[i] >= demand*(1-eps) {
			continue
		}
		bottleneck := false
		for _, l := range b.Edges {
			if load[l] >= capacity(int(l))*(1-eps) && norm[i] >= peak[l]*(1-eps) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("bundle %d: rate %v under demand %v with no bottleneck on its path", i, rates[i], demand)
		}
	}
	return nil
}
