package mpls

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/unit"
)

// mbbTriangle: A-B (0/1), B-C (2/3), A-C (4/5), 100 kbps per link.
func mbbTriangle(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("mbb")
	b.AddLink("A", "B", 100*unit.Kbps, unit.Millisecond)
	b.AddLink("B", "C", 100*unit.Kbps, unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Kbps, 5*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPlanTransitionMove(t *testing.T) {
	topo := mbbTriangle(t)
	old := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 60}}
	next := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{4}, Rate: 60}}
	st := PlanTransition(topo, old, next)
	if st.Setups != 1 || st.Teardowns != 1 || st.Kept != 0 {
		t.Fatalf("setups/teardowns/kept = %d/%d/%d, want 1/1/0", st.Setups, st.Teardowns, st.Kept)
	}
	// Disjoint paths: both generations reserve simultaneously, peak 0.6.
	if !almost(st.PeakTransientUtil, 0.6) || !almost(st.MinHeadroomFrac, 0.4) {
		t.Fatalf("transient %v headroom %v, want 0.6/0.4", st.PeakTransientUtil, st.MinHeadroomFrac)
	}
	if !almost(st.SteadyPeakUtil, 0.6) {
		t.Fatalf("steady %v, want 0.6", st.SteadyPeakUtil)
	}
	if st.OverCommittedLinks != 0 {
		t.Fatalf("over-committed links %d, want 0", st.OverCommittedLinks)
	}
}

func TestPlanTransitionSharedExplicit(t *testing.T) {
	topo := mbbTriangle(t)
	// The session keeps link 0 on both generations: shared-explicit
	// reservation counts the common link once (max, not sum).
	old := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 60}}
	next := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{0}, Rate: 60}}
	st := PlanTransition(topo, old, next)
	if !almost(st.PeakTransientUtil, 0.6) {
		t.Fatalf("shared link double-counted: transient %v, want 0.6", st.PeakTransientUtil)
	}

	// Two *different* sessions converging on one link do sum.
	old = []ReservedPath{
		{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 60},
		{Key: 2, Edges: []graph.EdgeID{0}, Rate: 30},
	}
	next = []ReservedPath{
		{Key: 1, Edges: []graph.EdgeID{4}, Rate: 60},
		{Key: 2, Edges: []graph.EdgeID{4}, Rate: 30},
	}
	st = PlanTransition(topo, old, next)
	if !almost(st.PeakTransientUtil, 0.9) {
		t.Fatalf("transient %v, want 0.9 (sessions sum on link 4)", st.PeakTransientUtil)
	}
}

func TestPlanTransitionOverCommit(t *testing.T) {
	topo := mbbTriangle(t)
	old := []ReservedPath{
		{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 60},
		{Key: 2, Edges: []graph.EdgeID{4}, Rate: 60},
	}
	// Both sessions end up on link 4: during the transition key 1's new
	// reservation joins key 2's still-held old one — 120 on a 100 link.
	next := []ReservedPath{
		{Key: 1, Edges: []graph.EdgeID{4}, Rate: 60},
		{Key: 2, Edges: []graph.EdgeID{4}, Rate: 60},
	}
	st := PlanTransition(topo, old, next)
	if st.OverCommittedLinks != 1 {
		t.Fatalf("over-committed links %d, want 1", st.OverCommittedLinks)
	}
	if st.MinHeadroomFrac >= 0 {
		t.Fatalf("headroom %v, want negative", st.MinHeadroomFrac)
	}
	if !almost(st.SteadyPeakUtil, 1.2) {
		t.Fatalf("steady %v, want 1.2", st.SteadyPeakUtil)
	}
}

func TestPlanTransitionResizeInPlace(t *testing.T) {
	topo := mbbTriangle(t)
	old := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 60}}
	next := []ReservedPath{{Key: 1, Edges: []graph.EdgeID{0, 2}, Rate: 80}}
	st := PlanTransition(topo, old, next)
	if st.Kept != 1 || st.Setups != 0 || st.Teardowns != 0 {
		t.Fatalf("kept/setups/teardowns = %d/%d/%d, want 1/0/0", st.Kept, st.Setups, st.Teardowns)
	}
	if !almost(st.PeakTransientUtil, 0.8) {
		t.Fatalf("transient %v, want 0.8 (max of old and new, not sum)", st.PeakTransientUtil)
	}
}

func TestPlanTransitionZeroCapacityLink(t *testing.T) {
	topo := mbbTriangle(t)
	dead, err := topo.WithLinkCapacity(4, 0)
	if err != nil {
		t.Fatalf("WithLinkCapacity: %v", err)
	}
	st := PlanTransition(dead, nil, []ReservedPath{{Key: 1, Edges: []graph.EdgeID{4}, Rate: 10}})
	if st.OverCommittedLinks != 1 {
		t.Fatalf("reservation on a dead link not flagged: %+v", st)
	}
	// Empty transitions and self-pairs (no edges) are no-ops.
	st = PlanTransition(topo, nil, []ReservedPath{{Key: 1, Rate: 10}})
	if st.Setups != 0 || st.PeakTransientUtil != 0 {
		t.Fatalf("edgeless reservation counted: %+v", st)
	}
}

// planTransitionMaps is the map-based planner PlanTransition replaced,
// kept as its reference: per-key link loads in maps, summed key by key in
// ascending key order, and (key, path) pairs matched by their rendering.
func planTransitionMaps(topo *topology.Topology, old, next []ReservedPath) TransitionStats {
	perKeyLoads := func(rs []ReservedPath) map[int64]map[graph.EdgeID]float64 {
		by := make(map[int64]map[graph.EdgeID]float64)
		for _, r := range rs {
			if len(r.Edges) == 0 {
				continue
			}
			m := by[r.Key]
			if m == nil {
				m = make(map[graph.EdgeID]float64)
				by[r.Key] = m
			}
			for _, e := range r.Edges {
				m[e] += r.Rate
			}
		}
		return by
	}
	pairs := func(rs []ReservedPath) map[string]bool {
		m := make(map[string]bool)
		for _, r := range rs {
			if len(r.Edges) == 0 {
				continue
			}
			b := strconv.AppendInt(nil, r.Key, 10)
			for _, e := range r.Edges {
				b = append(b, '|')
				b = strconv.AppendInt(b, int64(e), 10)
			}
			m[string(b)] = true
		}
		return m
	}

	oldBy, newBy := perKeyLoads(old), perKeyLoads(next)
	nL := topo.NumLinks()
	transient := make([]float64, nL)
	steady := make([]float64, nL)
	keys := make([]int64, 0, len(oldBy)+len(newBy))
	for key := range oldBy {
		keys = append(keys, key)
	}
	for key := range newBy {
		if _, seen := oldBy[key]; !seen {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		o, n := oldBy[key], newBy[key]
		for e, lo := range o {
			ln := n[e]
			if lo > ln {
				transient[e] += lo
			} else {
				transient[e] += ln
			}
		}
		for e, ln := range n {
			if _, shared := o[e]; !shared {
				transient[e] += ln
			}
			steady[e] += ln
		}
	}

	var st TransitionStats
	const eps = 1e-9
	for l := 0; l < nL; l++ {
		c := float64(topo.Capacity(topology.LinkID(l)))
		if c <= 0 {
			if transient[l] > eps {
				st.OverCommittedLinks++
			}
			continue
		}
		if u := transient[l] / c; u > st.PeakTransientUtil {
			st.PeakTransientUtil = u
		}
		if transient[l] > c+eps {
			st.OverCommittedLinks++
		}
		if u := steady[l] / c; u > st.SteadyPeakUtil {
			st.SteadyPeakUtil = u
		}
	}
	st.MinHeadroomFrac = 1 - st.PeakTransientUtil

	oldPairs, newPairs := pairs(old), pairs(next)
	for k := range oldPairs {
		if newPairs[k] {
			st.Kept++
		} else {
			st.Teardowns++
		}
	}
	for k := range newPairs {
		if !oldPairs[k] {
			st.Setups++
		}
	}
	return st
}

// TestPlannerMatchesMapReference holds one reused Planner to the map-based
// reference, bit for bit, on random transitions of growing and shrinking
// size: repeated keys, repeated (key, path) pairs, empty paths, rates
// spread over many magnitudes (so a changed summation order shows in the
// last bits) and links of zero capacity.
func TestPlannerMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ring, err := topology.Ring(8, 4, 10*unit.Mbps, 36)
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]unit.Bandwidth, ring.NumLinks())
	for l := range caps {
		if rng.Intn(6) > 0 {
			caps[l] = unit.Bandwidth(1 + rng.Intn(20000))
		}
	}
	topo, err := ring.WithCapacities(caps)
	if err != nil {
		t.Fatal(err)
	}
	nL := topo.NumLinks()
	rate := func() float64 {
		if rng.Intn(10) == 0 {
			return 0
		}
		return rng.Float64() * math.Pow(10, float64(rng.Intn(10)-3))
	}
	path := func() []graph.EdgeID {
		p := make([]graph.EdgeID, rng.Intn(5)) // empty one time in five
		for i := range p {
			p[i] = graph.EdgeID(rng.Intn(nL))
		}
		return p
	}
	reservations := func(n int, from []ReservedPath) []ReservedPath {
		rs := make([]ReservedPath, n)
		for i := range rs {
			switch {
			case len(from) > 0 && rng.Intn(2) == 0: // a kept or resized pair
				rs[i] = from[rng.Intn(len(from))]
				rs[i].Rate = rate()
			case i > 0 && rng.Intn(6) == 0: // a repeated pair
				rs[i] = rs[rng.Intn(i)]
			default:
				rs[i] = ReservedPath{Key: int64(rng.Intn(9) - 3), Edges: path(), Rate: rate()}
			}
		}
		return rs
	}
	var p Planner
	for call := 0; call < 400; call++ {
		size := 1 + call%50 // grows to 50, then starts small again
		if call%2 == 1 {
			size = 50 - call%50
		}
		old := reservations(rng.Intn(size+1), nil)
		next := reservations(rng.Intn(size+1), old)
		got, want := p.Plan(topo, old, next), planTransitionMaps(topo, old, next)
		if !sameTransition(got, want) {
			t.Fatalf("call %d (%d -> %d reservations): planner %+v, map reference %+v", call, len(old), len(next), got, want)
		}
		if call == 0 {
			if got := PlanTransition(topo, old, next); !sameTransition(got, want) {
				t.Fatalf("PlanTransition %+v, map reference %+v", got, want)
			}
		}
	}
}

// sameTransition compares transition stats with floats bit for bit.
func sameTransition(a, b TransitionStats) bool {
	bits := math.Float64bits
	return a.Setups == b.Setups && a.Teardowns == b.Teardowns && a.Kept == b.Kept &&
		a.OverCommittedLinks == b.OverCommittedLinks &&
		bits(a.PeakTransientUtil) == bits(b.PeakTransientUtil) &&
		bits(a.MinHeadroomFrac) == bits(b.MinHeadroomFrac) &&
		bits(a.SteadyPeakUtil) == bits(b.SteadyPeakUtil)
}
