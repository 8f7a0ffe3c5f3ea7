// Package flowmodel implements FUBAR's TCP-like traffic model (§2.3 of the
// paper): a progressive water-filling that predicts the bandwidth every
// bundle of flows obtains given a path assignment.
//
// The network starts as empty pipes. Every bundle grows at a rate
// proportional to flows/RTT — the TCP-friendly assumption that a congested
// flow's throughput is inversely proportional to its round-trip time. A
// bundle stops growing when it satisfies its demand (the inflection point
// of its utility function's bandwidth component) or when a link on its
// path fills; the filling proceeds in discrete events until every bundle
// is frozen. This is weighted max-min fairness with weights flows/RTT and
// per-bundle demand caps.
//
// Evaluate is the optimizer's inner loop: it runs thousands of times per
// optimization, so the implementation indexes dense slices owned by an
// evaluation arena and performs no per-call allocation once the bundle
// count stabilizes.
//
// # Concurrency: Model vs Eval
//
// A Model is immutable after New — topology, matrix, capacities and
// per-aggregate demand never change — and may be shared freely between
// goroutines. Every evaluation runs on an Eval arena the caller owns,
// obtained from Model.NewEval (or re-pointed at the Model by Eval.Rebind).
// Arenas are independent: any number of goroutines may call Evaluate
// concurrently as long as each goroutine owns its arena. One Eval must
// never be used from two goroutines at once, and its Result is overwritten
// by the arena's next Evaluate call.
package flowmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// minRTTMs floors a bundle's round-trip time so metro paths with
// near-zero propagation still fill at a finite rate.
const minRTTMs = 1.0

// Bundle is a group of flows from one aggregate routed over one path
// (§2.3: "bundles of flows that share the same entry point, exit point,
// traffic class, and path through the network").
type Bundle struct {
	Agg   traffic.AggregateID
	Flows int
	// Edges is the path's directed link sequence; empty for self-pair
	// aggregates, which never enter the backbone.
	Edges []graph.EdgeID
	// Delay is the one-way propagation delay of the path, precomputed by
	// NewBundle.
	Delay unit.Delay
}

// NewBundle builds a bundle over a path, computing the path delay.
func NewBundle(topo *topology.Topology, agg traffic.AggregateID, flows int, path graph.Path) Bundle {
	return Bundle{
		Agg:   agg,
		Flows: flows,
		Edges: path.Edges,
		Delay: topo.PathDelay(path),
	}
}

// RTT returns the bundle's modeled round-trip time in milliseconds,
// floored at 1 ms.
func (b Bundle) RTT() float64 {
	r := 2 * float64(b.Delay)
	if r < minRTTMs {
		r = minRTTMs
	}
	return r
}

// Result holds one model evaluation. It belongs to the Eval arena that
// filled it: slices are indexed by bundle, link or aggregate ID and are
// reused by that arena's next Evaluate call; callers must copy (Clone)
// anything they keep.
type Result struct {
	// BundleRate is the aggregate rate (kbps) each bundle achieves.
	BundleRate []float64
	// BundleSatisfied marks bundles whose demand was met.
	BundleSatisfied []bool
	// LinkLoad is the carried load (kbps) per directed link.
	LinkLoad []float64
	// LinkDemand is the total demand (kbps) of bundles crossing each link.
	LinkDemand []float64
	// Congested lists links that froze at least one bundle, i.e. actual
	// bottlenecks, in increasing link order.
	Congested []graph.EdgeID
	// IsCongested is the set view of Congested.
	IsCongested []bool
	// AggUtility is per-aggregate utility in [0,1].
	AggUtility []float64
	// NetworkUtility is the weight*flow-count weighted mean utility (§3's
	// "total average").
	NetworkUtility float64
	// ActualUtilization is carried load / capacity summed over used links.
	ActualUtilization float64
	// DemandedUtilization is demand / capacity summed over used links.
	DemandedUtilization float64
}

// Clone deep-copies the result (used when a caller needs to retain one
// evaluation while its arena keeps running).
func (r *Result) Clone() *Result { return r.CloneInto(new(Result)) }

// CloneInto deep-copies the result into dst, reusing dst's slices, and
// returns dst: what a caller that keeps one result from run to run copies
// into.
func (r *Result) CloneInto(dst *Result) *Result {
	*dst = Result{
		BundleRate:          append(dst.BundleRate[:0], r.BundleRate...),
		BundleSatisfied:     append(dst.BundleSatisfied[:0], r.BundleSatisfied...),
		LinkLoad:            append(dst.LinkLoad[:0], r.LinkLoad...),
		LinkDemand:          append(dst.LinkDemand[:0], r.LinkDemand...),
		Congested:           append(dst.Congested[:0], r.Congested...),
		IsCongested:         append(dst.IsCongested[:0], r.IsCongested...),
		AggUtility:          append(dst.AggUtility[:0], r.AggUtility...),
		NetworkUtility:      r.NetworkUtility,
		ActualUtilization:   r.ActualUtilization,
		DemandedUtilization: r.DemandedUtilization,
	}
	return dst
}

// Model holds the immutable half of an evaluation: topology, traffic
// matrix, link capacities and per-aggregate demand. It never changes
// after New, holds no evaluation scratch, and is safe for concurrent use
// by any number of Eval arenas.
type Model struct {
	topo *topology.Topology
	mat  *traffic.Matrix

	capacity    []float64 // per link, kbps
	demandPer   []float64 // per aggregate: demand per flow, kbps
	aggFlows    []int
	aggWeight   []float64
	totalWeight float64 // sum of weight*flows over all aggregates
}

// Eval is a reusable evaluation arena: all the mutable scratch one
// water-filling run needs, plus the Result it fills. Arenas over the same
// Model are independent — one goroutine per arena may Evaluate
// concurrently — but a single arena is not reentrant.
type Eval struct {
	m *Model

	// Scratch state, sized on demand.
	weight  []float64 // per bundle: flows/RTT
	demand  []float64 // per bundle: flows * demandPerFlow
	tDemand []float64 // per bundle: demand / weight
	frozen  []bool
	// byDemand records how each bundle froze: true = at its own demand
	// event (time tDemand, rate = demand — a trajectory independent of
	// every other bundle), false = at a link-saturation event. The delta
	// path uses it to decide which bundles can transmit influence.
	byDemand   []bool
	order      []uint64 // demand events: float32(tDemand) bits << 32 | index
	linkW      []float64
	linkFrozen []float64
	linkBun    [][]int32 // per link: bundles crossing it
	events     linkQueue // pending link-saturation events
	// stallClears counts residual-float-weight stall-guard activations
	// (the linkW-dust branch of the fill loop), for tests.
	stallClears int64
	// sub is the closure of the running fill when it is a delta
	// sub-problem, nil in a full fill. A link event about to freeze a bundle
	// the delta closure treated lazily first promotes the link's lazy
	// crossers (widen): the fill goes on in place unless that admits a link
	// into the sub-problem, when it aborts so the delta path can re-run
	// wider. And freezeBundle releases a bundle from the sub-problem links
	// recorded for it (its incidence chains), not from its path's, most of
	// which hold another fill's scratch.
	sub *Closure

	delta deltaScratch
	// closure is the last step closure this arena built (Eval.Closure):
	// its marks, lists and chains live in delta, its folds in linkW and
	// res.LinkDemand, its demand keys in order. primed and primedGen name
	// the closure whose bundles' fill parameters weight, demand and tDemand
	// hold (prime).
	closure   Closure
	primed    *Closure
	primedGen uint64
	stats     DeltaStats
	// For tests and benchmarks: scores returned from their interval,
	// load-check links decided and those re-summed because theirs straddled
	// the threshold, and lazy hits whose promotion let the fill continue in
	// place or widened the sub-problem and aborted it.
	bounded, checked, resummed, continued, aborted int64
	// remapInv is RemapBase's old-index → new-index scratch.
	remapInv []int32
	res      Result
}

// New builds a model for the topology and matrix.
func New(topo *topology.Topology, mat *traffic.Matrix) (*Model, error) {
	if topo == nil || mat == nil {
		return nil, fmt.Errorf("flowmodel: nil topology or matrix")
	}
	if mat.Topology() != topo {
		return nil, fmt.Errorf("flowmodel: matrix bound to a different topology")
	}
	nL := topo.NumLinks()
	nA := mat.NumAggregates()
	m := &Model{
		topo:      topo,
		mat:       mat,
		capacity:  make([]float64, nL),
		demandPer: make([]float64, nA),
		aggFlows:  make([]int, nA),
		aggWeight: make([]float64, nA),
	}
	for i := 0; i < nL; i++ {
		m.capacity[i] = float64(topo.Capacity(graph.EdgeID(i)))
	}
	for i := 0; i < nA; i++ {
		a := mat.Aggregate(traffic.AggregateID(i))
		m.demandPer[i] = float64(a.DemandPerFlow())
		m.aggFlows[i] = a.Flows
		m.aggWeight[i] = a.Weight
		m.totalWeight += a.Weight * float64(a.Flows)
	}
	return m, nil
}

// Topology returns the model's topology.
func (m *Model) Topology() *topology.Topology { return m.topo }

// Matrix returns the model's traffic matrix.
func (m *Model) Matrix() *traffic.Matrix { return m.mat }

// NewEval returns a fresh evaluation arena over the model. The arena is
// independent of every other arena; hand one to each goroutine that needs
// to Evaluate concurrently.
func (m *Model) NewEval() *Eval {
	nL := m.topo.NumLinks()
	nA := m.mat.NumAggregates()
	e := &Eval{
		m:          m,
		linkW:      make([]float64, nL),
		linkFrozen: make([]float64, nL),
		linkBun:    make([][]int32, nL),
	}
	e.events.init(nL)
	e.res.LinkLoad = make([]float64, nL)
	e.res.LinkDemand = make([]float64, nL)
	e.res.IsCongested = make([]bool, nL)
	e.res.AggUtility = make([]float64, nA)
	return e
}

// Rebind re-points the arena at another model, keeping its storage: a
// long-lived optimizer meets a new Model every epoch, over the same links
// and a matrix that may have gained or lost aggregates. Nothing an
// evaluation reads survives the switch — every evaluation rewrites its
// per-bundle and per-link state, the delta marks are epoch-stamped — so the
// arena evaluates exactly as a fresh one would. A model over another link
// count gets fresh storage.
func (e *Eval) Rebind(m *Model) {
	if m.topo.NumLinks() != len(e.linkW) {
		*e = *m.NewEval()
		return
	}
	e.m = m
	e.res.AggUtility = resize(e.res.AggUtility, m.mat.NumAggregates())
}

// Evaluate runs the water-filling over the bundle set and returns the
// arena's Result (valid until this arena's next Evaluate call).
func (e *Eval) Evaluate(bundles []Bundle) *Result {
	m := e.m
	nB := len(bundles)
	nL := m.topo.NumLinks()
	e.grow(nB)
	e.primed = nil // every bundle's fill parameters are rewritten
	res := &e.res
	res.BundleRate = res.BundleRate[:nB]
	res.BundleSatisfied = res.BundleSatisfied[:nB]

	for i := 0; i < nL; i++ {
		e.linkW[i] = 0
		e.linkFrozen[i] = 0
		e.linkBun[i] = e.linkBun[i][:0]
		res.LinkLoad[i] = 0
		res.LinkDemand[i] = 0
		res.IsCongested[i] = false
	}

	// Set up per-bundle filling parameters.
	active := 0
	for i := range bundles {
		active += e.setupBundle(bundles, i, res)
	}

	e.buildDemandOrder()

	// Seed the saturation-event queue with every loaded link.
	e.events.reset()
	for l := 0; l < nL; l++ {
		if e.linkW[l] > 0 {
			e.events.update(int32(l), (m.capacity[l]-e.linkFrozen[l])/e.linkW[l])
		}
	}
	e.events.start()

	e.fill(bundles, active, res)

	// Final per-link loads: sum crossing-bundle rates in bundle index
	// order, a canonical order shared with the delta path so full and
	// incremental evaluations agree bit for bit.
	for l := 0; l < nL; l++ {
		res.LinkLoad[l] = e.linkLoadOf(res, e.linkBun[l], m.capacity[l])
	}
	e.rebuildCongested(res)
	e.computeUtility(bundles, res)
	e.computeUtilization(res)
	return res
}

// setupBundle initializes bundle i's filling parameters and accumulates
// its weight and demand onto the links it crosses. Returns 1 when the
// bundle enters the filling as active, 0 when it freezes immediately.
func (e *Eval) setupBundle(bundles []Bundle, i int, res *Result) int {
	if e.setupParams(bundles, i, res) == 0 {
		return 0
	}
	w, d := e.weight[i], e.demand[i]
	for _, eid := range bundles[i].Edges {
		e.linkW[eid] += w
		e.linkBun[eid] = append(e.linkBun[eid], int32(i))
		res.LinkDemand[eid] += d
	}
	return 1
}

// setupParams initializes bundle i's filling parameters and rate, touching
// no link (the delta path accumulates links on its own, per link). Returns
// 1 when the bundle enters the filling as active, 0 when it freezes
// immediately (self-pair, empty, or zero-demand placeholder).
func (e *Eval) setupParams(bundles []Bundle, i int, res *Result) int {
	b := bundles[i]
	d := e.m.demandPer[b.Agg] * float64(b.Flows)
	e.demand[i] = d
	res.BundleRate[i] = 0
	res.BundleSatisfied[i] = false
	if len(b.Edges) == 0 || b.Flows <= 0 || d == 0 {
		// Self-pair or empty bundle: satisfied immediately.
		res.BundleRate[i] = d
		res.BundleSatisfied[i] = true
		e.frozen[i] = true
		e.byDemand[i] = true
		e.weight[i] = 0
		e.tDemand[i] = 0
		return 0
	}
	w := float64(b.Flows) / b.RTT()
	e.weight[i] = w
	e.tDemand[i] = d / w
	e.frozen[i] = false
	return 1
}

// buildDemandOrder sorts the active bundles' demand events in increasing
// tDemand order. Keys pack a float32 of the demand time above the bundle
// index: non-negative float32 bits sort correctly as integers, and demand
// events commute, so float32 granularity cannot change the outcome — only
// the processing order of near-simultaneous satisfactions. (The delta
// path derives its event order from a Base's captured copy of this list
// instead of re-sorting.)
func (e *Eval) buildDemandOrder() {
	e.order = e.order[:0]
	for i := range e.frozen {
		if !e.frozen[i] {
			e.order = append(e.order, uint64(math.Float32bits(float32(e.tDemand[i])))<<32|uint64(uint32(i)))
		}
	}
	slices.Sort(e.order)
}

// fill runs the progressive water-filling event loop until every active
// bundle froze. Demand events come from e.order; saturation events from
// the e.events queue. Both full and delta evaluations share this loop —
// only the set of participating bundles and links differs. In a delta
// sub-fill (e.sub set), a link event about to freeze a bundle the delta
// closure treated lazily widens the closure first; when that admits a
// sub-problem link the fill aborts and reports true, so the caller re-runs
// wider.
func (e *Eval) fill(bundles []Bundle, active int, res *Result) bool {
	next := 0 // index into order of the earliest pending demand event
	for active > 0 {
		// Earliest pending demand event.
		for next < len(e.order) && e.frozen[uint32(e.order[next])] {
			next++
		}
		tDem := math.Inf(1)
		if next < len(e.order) {
			tDem = e.tDemand[uint32(e.order[next])]
		}
		// Earliest link saturation event.
		link, tLink := e.events.peek()
		linkIdx := int(link)
		switch {
		case tDem <= tLink:
			// Demand satisfied first (ties resolve to satisfaction).
			i := int(uint32(e.order[next]))
			next++
			e.byDemand[i] = true
			e.freezeBundle(bundles, i, e.demand[i], true, res)
			active--
		case linkIdx >= 0:
			// Link saturates: freeze every active bundle crossing it at
			// its current rate.
			t := tLink
			if t < 0 {
				t = 0 // link already over capacity from frozen load
			}
			froze, truncated := 0, 0
			crossers := e.linkBun[linkIdx]
			if e.sub != nil {
				crossers = e.crossers(e.sub, link)
			}
			for _, bi := range crossers {
				if e.frozen[bi] {
					continue
				}
				if e.sub != nil && !e.delta.eager(e.sub, bi) && e.widen(bundles, link) {
					// Optimistic closure missed: a link event reached a
					// bundle assumed to stay demand-frozen, and promoting
					// it reached past the sub-problem. Abort so the delta
					// path re-solves wider.
					return true
				}
				rate := e.weight[bi] * t
				// Floating-point tie: a bundle reaching its demand at the
				// very instant the link fills is satisfied, not congested.
				sat := rate >= e.demand[bi]*(1-1e-9)
				if sat {
					rate = e.demand[bi]
				} else {
					truncated++
				}
				// Even a tie-satisfied bundle froze at the link's time,
				// not its own demand time — it can transmit influence.
				e.byDemand[bi] = false
				e.freezeBundle(bundles, int(bi), rate, sat, res)
				active--
				froze++
			}
			switch {
			case truncated > 0:
				res.IsCongested[linkIdx] = true
			case froze > 0:
				// Every crosser finished exactly at its demand: the link
				// is full but nobody is denied bandwidth — not congested.
			default:
				// Residual float weight with no active bundle: clear the
				// dust and retire the link's event so the filling cannot
				// stall on it. The link's Result bookkeeping is left
				// consistent — LinkDemand keeps the true crossing demand
				// set up front, the canonical load summation never sees
				// the dust, and the link is not marked congested.
				e.linkW[linkIdx] = 0
				e.events.remove(link)
				e.stallClears++
			}
		default:
			// No pending events but active bundles remain: impossible,
			// since every active bundle has a finite demand time.
			panic("flowmodel: stalled filling")
		}
	}
	return false
}

// freezeBundle fixes bundle i at the given rate and removes its weight
// from the links it fills — its path's in a full fill, the sub-problem's
// share of them in a delta fill: the candidate's incidence chain, then,
// unless the candidate changed the bundle, the step closure's —
// rescheduling their saturation events. Visit order is immaterial: each
// link's arithmetic is its own, and the event queue's order is total, so
// the next peek depends only on the keys.
func (e *Eval) freezeBundle(bundles []Bundle, i int, rate float64, satisfied bool, res *Result) {
	e.frozen[i] = true
	res.BundleRate[i] = rate
	res.BundleSatisfied[i] = satisfied
	w := e.weight[i]
	if c := e.sub; c != nil {
		d := &e.delta
		for k := d.incHead[i]; k >= 0; k = d.inc[k].next {
			e.release(d.inc[k].link, w, rate)
		}
		if c.bunMark[i] == c.epoch && d.chMark[i] != d.epoch {
			for k := c.incHead[i]; k >= 0; k = c.inc[k].next {
				e.release(c.inc[k].link, w, rate)
			}
		}
		return
	}
	for _, eid := range bundles[i].Edges {
		e.release(int32(eid), w, rate)
	}
}

// release takes a bundle frozen at rate out of link l's filling weight
// and reschedules the link's saturation event.
func (e *Eval) release(l int32, w, rate float64) {
	e.linkW[l] -= w
	if e.linkW[l] < 0 {
		e.linkW[l] = 0
	}
	e.linkFrozen[l] += rate
	if e.linkW[l] > 0 {
		e.events.update(l, (e.m.capacity[l]-e.linkFrozen[l])/e.linkW[l])
	} else {
		e.events.remove(l)
	}
}

// linkLoadOf sums the final rates of the given crossing bundles (in the
// canonical bundle-index order the lists are built in) and clamps at the
// link's capacity.
func (e *Eval) linkLoadOf(res *Result, crossers []int32, capacity float64) float64 {
	var load float64
	for _, bi := range crossers {
		load += res.BundleRate[bi]
	}
	if load > capacity {
		load = capacity
	}
	return load
}

// rebuildCongested derives the Congested list from IsCongested in
// increasing link order — canonical, so full and delta evaluations of the
// same allocation produce identical lists.
func (e *Eval) rebuildCongested(res *Result) {
	res.Congested = res.Congested[:0]
	for l := range res.IsCongested {
		if res.IsCongested[l] {
			res.Congested = append(res.Congested, graph.EdgeID(l))
		}
	}
}

// computeUtility fills per-aggregate and network utility: each bundle's
// flows see per-flow bandwidth rate/flows at the bundle's path round-trip
// time (utility delay components are interpreted as RTT — the delay an
// application experiences — matching the paper's Fig 6 delay spread); an
// aggregate's utility is its flow-weighted bundle mean; the network's is
// the weight*flows weighted mean over aggregates (§3 "total average").
func (e *Eval) computeUtility(bundles []Bundle, res *Result) {
	m := e.m
	nA := m.mat.NumAggregates()
	for i := 0; i < nA; i++ {
		res.AggUtility[i] = 0
	}
	// Flows not covered by any bundle contribute zero utility, so track
	// covered flow counts for safety in partial allocations.
	for bi, b := range bundles {
		if b.Flows <= 0 {
			continue
		}
		res.AggUtility[b.Agg] += m.utilityTerm(b, res.BundleRate[bi])
	}
	var total float64
	for i := 0; i < nA; i++ {
		if f := float64(m.aggFlows[i]); f > 0 {
			res.AggUtility[i] /= f
		}
		total += m.networkTerm(i, res.AggUtility[i])
	}
	if m.totalWeight > 0 {
		res.NetworkUtility = total / m.totalWeight
	} else {
		res.NetworkUtility = 0
	}
}

// networkTerm returns aggregate a's term of the network-utility fold for
// a given aggregate utility: utility × weight × flows. The full path sums
// these directly and a Base caches them (Base.aggTerm), so the product
// must round the same way wherever it is taken: the explicit conversion
// keeps a compiler that fuses multiply-adds from folding it into the
// caller's running sum.
func (m *Model) networkTerm(a int, util float64) float64 {
	return float64(util * m.aggWeight[a] * float64(m.aggFlows[a]))
}

// utilityTerm returns one bundle's flow-weighted utility contribution:
// its flows see per-flow bandwidth rate/flows at the bundle's path
// round-trip time. The full and delta paths both sum aggregates from
// this helper, keeping their arithmetic identical term for term — the
// bit-identity contract of EvaluateDelta depends on that.
func (m *Model) utilityTerm(b Bundle, rate float64) float64 {
	perFlow := unit.Bandwidth(rate / float64(b.Flows))
	var u float64
	if len(b.Edges) == 0 {
		u = 1 // same-POP traffic never crosses the backbone
	} else {
		u = m.mat.Aggregate(b.Agg).Fn.Eval(perFlow, 2*b.Delay) // delay curves are RTT
	}
	return u * float64(b.Flows)
}

// computeUtilization fills the two §3 utilization metrics over links that
// carry traffic.
func (e *Eval) computeUtilization(res *Result) {
	var usedCap, load, demand float64
	for l := range res.LinkLoad {
		if res.LinkLoad[l] <= 0 && res.LinkDemand[l] <= 0 {
			continue
		}
		usedCap += e.m.capacity[l]
		load += res.LinkLoad[l]
		demand += res.LinkDemand[l]
	}
	if usedCap > 0 {
		res.ActualUtilization = load / usedCap
		res.DemandedUtilization = demand / usedCap
	} else {
		res.ActualUtilization = 0
		res.DemandedUtilization = 0
	}
}

// grow resizes the per-bundle scratch slices (contents dropped when one
// re-allocates: every evaluation writes what it reads).
func (e *Eval) grow(nB int) {
	if cap(e.weight) < nB {
		e.primed = nil // the fill parameters re-allocate below
	}
	e.weight = resize(e.weight, nB)
	e.demand = resize(e.demand, nB)
	e.tDemand = resize(e.tDemand, nB)
	e.frozen = resize(e.frozen, nB)
	e.byDemand = resize(e.byDemand, nB)
	e.res.BundleRate = resize(e.res.BundleRate, nB)
	e.res.BundleSatisfied = resize(e.res.BundleSatisfied, nB)
	e.order = resize(e.order, nB)[:0]
}

// Oversubscription returns demand/capacity for a link in the last result.
func (m *Model) Oversubscription(res *Result, l graph.EdgeID) float64 {
	if m.capacity[l] <= 0 {
		return 0
	}
	return res.LinkDemand[l] / m.capacity[l]
}

// CongestedByOversubscription returns the congested links of a result
// sorted by decreasing demand/capacity (Listing 1 lines 4–5). The returned
// slice is freshly allocated.
func (m *Model) CongestedByOversubscription(res *Result) []graph.EdgeID {
	out := append([]graph.EdgeID(nil), res.Congested...)
	slices.SortFunc(out, func(a, b graph.EdgeID) int {
		if c := cmp.Compare(m.Oversubscription(res, b), m.Oversubscription(res, a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})
	return out
}
