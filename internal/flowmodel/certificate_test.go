package flowmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// maxMinViolation checks rates, one per bundle of list, against the
// certificate of a weighted max-min fair allocation with demand caps
// (Bertsekas & Gallager §6.5), at relative tolerance eps: no link carries
// more than its capacity, no bundle gets more than its demand, and every
// bundle under its demand has a bottleneck — a saturated link on its path
// where its rate per unit of weight is the largest of the link's crossers.
// A bundle's weight is its flows over its round-trip time (twice its path's
// one-way delay, floored at 1 ms), its demand its flows times its
// aggregate's per-flow demand. It reads only the topology, the matrix and
// the list, and shares no code with the fill. Returns "" for a certified
// allocation.
func maxMinViolation(topo *topology.Topology, mat *traffic.Matrix, list []Bundle, rates []float64, eps float64) string {
	nL := topo.NumLinks()
	load := make([]float64, nL)
	peak := make([]float64, nL) // per link: the largest rate per weight of a crosser
	norm := make([]float64, len(list))
	active := func(b Bundle) bool {
		return b.Flows > 0 && len(b.Edges) > 0 && mat.Aggregate(b.Agg).DemandPerFlow() > 0
	}
	for i, b := range list {
		demand := float64(mat.Aggregate(b.Agg).DemandPerFlow()) * float64(b.Flows)
		if r := rates[i]; r < 0 || r > demand*(1+eps) {
			return fmt.Sprintf("bundle %d: rate %v outside [0, demand %v]", i, r, demand)
		}
		if !active(b) {
			continue
		}
		var delay float64
		for _, l := range b.Edges {
			delay += float64(topo.Delay(topology.LinkID(l)))
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
			return fmt.Sprintf("link %d: load %v over capacity %v", l, load[l], capacity(l))
		}
	}
	for i, b := range list {
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
			return fmt.Sprintf("bundle %d: rate %v under demand %v with no bottleneck on its path", i, rates[i], demand)
		}
	}
	return ""
}

// TestMaxMinCertificate holds the water-filling to the max-min certificate
// on 300 random instances: the full evaluation of each, and the result of
// every CommitDelta along a run of random moves committed into its base.
func TestMaxMinCertificate(t *testing.T) {
	const eps = 1e-9
	commits := 0
	for seed := int64(1); seed <= 300; seed++ {
		topo, mat, list := randomInstance(t, seed)
		m, err := New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		arena := m.NewEval()
		if v := maxMinViolation(topo, mat, list, arena.Evaluate(list).BundleRate, eps); v != "" {
			t.Fatalf("seed %d, Evaluate: %s", seed, v)
		}
		var base Base
		arena.EvaluateBase(list, &base)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 5; k++ {
			changed := perturb(rng, list)
			if changed == nil {
				break
			}
			res, _ := arena.CommitDelta(&base, list, changed)
			if v := maxMinViolation(topo, mat, list, res.BundleRate, eps); v != "" {
				t.Fatalf("seed %d, commit %d: %s", seed, k, v)
			}
			commits++
		}
	}
	if commits < 300 {
		t.Fatalf("only %d commits certified", commits)
	}
}
