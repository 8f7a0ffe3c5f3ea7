package mpls

import (
	"cmp"
	"slices"

	"fubar/internal/graph"
	"fubar/internal/topology"
)

// ReservedPath is one (aggregate, path) reservation of an installed
// allocation, keyed by a caller-stable aggregate identity (the scenario
// engine's stable aggregate key, or any identifier that survives matrix
// re-indexing).
type ReservedPath struct {
	// Key identifies the reservation's session: reservations of the
	// same key share links RSVP shared-explicit style during a
	// make-before-break move (old and new paths of one session count
	// once on common links); different keys always sum.
	Key int64
	// Edges is the reserved route (empty paths are ignored).
	Edges []graph.EdgeID
	// Rate is the reserved bandwidth in kbps — the traffic model's
	// predicted bundle rate.
	Rate float64
}

// TransitionStats summarizes a make-before-break move from one
// installed allocation to another: every new path is signaled and
// reserved while the old paths still hold their reservations, traffic
// switches, then old-only reservations release. The interesting number
// is the transient: for a moment both generations of reservations
// coexist, and links must have the headroom to hold them.
type TransitionStats struct {
	// Setups counts (key, path) pairs present only in the new
	// allocation: tunnels signaled fresh.
	Setups int
	// Teardowns counts (key, path) pairs present only in the old
	// allocation: tunnels torn down after traffic switches.
	Teardowns int
	// Kept counts pairs present in both (possibly re-sized in place).
	Kept int
	// PeakTransientUtil is the maximum per-link utilization while both
	// generations coexist (shared-explicit per key: common links of one
	// session count max(old, new), different sessions sum). Above 1 the
	// transition cannot complete without ordering or over-subscription.
	PeakTransientUtil float64
	// MinHeadroomFrac is 1 - PeakTransientUtil: the tightest margin any
	// link has during the transition (negative: some link would need
	// more than its capacity).
	MinHeadroomFrac float64
	// SteadyPeakUtil is the maximum per-link utilization after the
	// transition settles, for contrast with the transient.
	SteadyPeakUtil float64
	// OverCommittedLinks counts links whose transient reservation
	// exceeds capacity (including any reservation on a zero-capacity
	// link).
	OverCommittedLinks int
}

// PlanTransition computes the transient cost of moving an installed
// allocation to a new one make-before-break on the given topology.
// It is a pure planning function — no LSPDB state changes — so a
// control loop can price a transition before pushing it. A caller that
// prices one transition after another keeps a Planner instead.
func PlanTransition(topo *topology.Topology, old, next []ReservedPath) TransitionStats {
	return new(Planner).Plan(topo, old, next)
}

// Planner prices make-before-break transitions (PlanTransition) on
// scratch it keeps from one Plan to the next. The zero value is ready.
// Not safe for concurrent use; it never writes its inputs.
type Planner struct {
	loads             [2][]keyLoad      // per (key, link) load of old and next
	pairs             [2][]ReservedPath // distinct non-empty (key, path) pairs
	transient, steady []float64
}

// keyLoad is one reservation's rate on one link, then, once folded, one
// key's summed rate on that link.
type keyLoad struct {
	key  int64
	edge graph.EdgeID
	rate float64
}

// Plan is PlanTransition on the planner's scratch.
func (p *Planner) Plan(topo *topology.Topology, old, next []ReservedPath) TransitionStats {
	o, n := p.keyLoads(0, old), p.keyLoads(1, next)
	nL := topo.NumLinks()
	p.transient = slices.Grow(p.transient[:0], nL)[:nL]
	p.steady = slices.Grow(p.steady[:0], nL)[:nL]
	transient, steady := p.transient, p.steady
	clear(transient)
	clear(steady)
	// Merge the two (key, link)-sorted lists. Each (key, link) adds once
	// to its link, in ascending key order, so the float sums do not
	// depend on the order the reservations came in. A session's common
	// links count max(old, new) (shared explicit); the rest count as is.
	for i, j := 0, 0; i < len(o) || j < len(n); {
		c := 1 // old exhausted: next only
		if i < len(o) {
			c = -1 // next exhausted: old only
			if j < len(n) {
				c = compareLoads(o[i], n[j])
			}
		}
		switch {
		case c < 0:
			transient[o[i].edge] += larger(o[i].rate, 0)
			i++
		case c > 0:
			transient[n[j].edge] += n[j].rate
			steady[n[j].edge] += n[j].rate
			j++
		default:
			transient[o[i].edge] += larger(o[i].rate, n[j].rate)
			steady[n[j].edge] += n[j].rate
			i++
			j++
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

	op, np := p.distinctPairs(0, old), p.distinctPairs(1, next)
	i, j := 0, 0
	for i < len(op) && j < len(np) {
		switch c := comparePairs(op[i], np[j]); {
		case c < 0:
			st.Teardowns++
			i++
		case c > 0:
			st.Setups++
			j++
		default:
			st.Kept++
			i++
			j++
		}
	}
	st.Teardowns += len(op) - i
	st.Setups += len(np) - j
	return st
}

// keyLoads folds rs into one load per (key, link), sorted by key then
// link: a key's rates on a link sum in input order.
func (p *Planner) keyLoads(side int, rs []ReservedPath) []keyLoad {
	loads := p.loads[side][:0]
	for _, r := range rs {
		for _, e := range r.Edges {
			loads = append(loads, keyLoad{key: r.Key, edge: e, rate: r.Rate})
		}
	}
	slices.SortStableFunc(loads, compareLoads)
	folded := loads[:0]
	for i := 0; i < len(loads); {
		l := keyLoad{key: loads[i].key, edge: loads[i].edge}
		for ; i < len(loads) && loads[i].key == l.key && loads[i].edge == l.edge; i++ {
			l.rate += loads[i].rate
		}
		folded = append(folded, l)
	}
	p.loads[side] = folded
	return folded
}

// distinctPairs returns rs's distinct (key, path) pairs with a non-empty
// path, sorted by key then path.
func (p *Planner) distinctPairs(side int, rs []ReservedPath) []ReservedPath {
	pairs := p.pairs[side][:0]
	for _, r := range rs {
		if len(r.Edges) > 0 {
			pairs = append(pairs, r)
		}
	}
	slices.SortFunc(pairs, comparePairs)
	pairs = slices.CompactFunc(pairs, func(a, b ReservedPath) bool { return comparePairs(a, b) == 0 })
	p.pairs[side] = pairs
	return pairs
}

// compareLoads orders loads by key, then link.
func compareLoads(a, b keyLoad) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.edge, b.edge)
}

// comparePairs orders reservations by key, then path.
func comparePairs(a, b ReservedPath) int {
	if c := cmp.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return slices.Compare(a.Edges, b.Edges)
}

// larger is lo when lo > ln, else ln: the shared-explicit charge of a
// link an old reservation at lo and a new one at ln have in common.
func larger(lo, ln float64) float64 {
	if lo > ln {
		return lo
	}
	return ln
}
