// Incremental (delta) evaluation: re-solve only the sub-problem a
// candidate move perturbs, splicing everything else from a captured base
// evaluation.
//
// # Affected-set fixpoint
//
// A candidate changes a handful of bundles. The links those bundles cross
// (in the base and the candidate list) are the seed links; the binding
// ones — and the ones the move's added demand projects to fill — join the
// sub-problem, while the rest only get their demand/load bookkeeping
// recomputed over the adjusted crossing set ("touched-seed"). Every
// bundle crossing a sub-problem link is affected (its rate may change).
// From an affected bundle the perturbation propagates onward only under
// two conditions:
//
//   - Through binding links: links the base fill actually constrained —
//     they truncated a bundle or filled to capacity. Every other link
//     fired no effective saturation event in the base, and as long as
//     that stays true in the candidate it transmits nothing; it is merely
//     "touched" — its load is recomputed from the new rates, it freezes
//     nobody and recruits nothing into the sub-problem.
//
//   - Out of bundles that can change their trajectory. A bundle that
//     froze at its own demand event (base byDemand) follows a trajectory
//     — grow at weight w until tDemand, freeze at exactly its demand —
//     that no other bundle influences, so as long as it still freezes by
//     demand in the candidate it transmits nothing, and its links stay
//     out of the sub-problem. Bundles the base froze at a link event (and
//     all changed bundles) propagate eagerly.
//
// Both halves of that rule are optimistic, and both are verified:
//
//   - The moment a link event reaches a bundle the closure treated lazily,
//     the fill promotes the link's lazy crossers to eager (widen). If that
//     admits no link into the sub-problem the fill goes on in place — a
//     re-run would replay it event for event — and otherwise it aborts and
//     the sub-problem re-runs wider.
//
//   - In the water-filling every bundle's instantaneous rate is
//     non-decreasing until it freezes, so a link's load is non-decreasing
//     over the fill and its maximum is its final load. A touched link
//     whose recomputed final load stays below capacity therefore provably
//     never saturates mid-fill — excluding it was exact. One that reaches
//     capacity (within float margin) is promoted into the sub-problem and
//     the solve re-runs.
//
// In practice candidates rarely flip either assumption, and the affected
// component stays proportional to the congested neighborhood of the move
// instead of swallowing the network.
//
// The closure property this yields — every bundle crossing a sub-problem
// link is affected — means the sub-problem water-fills against full link
// capacities with exactly the crossers the full evaluation would see, in
// the same bundle-index order, so its arithmetic is bit-identical to the
// full evaluation restricted to the affected component. Unaffected
// bundles keep their base rates; untouched links keep their base loads.
//
// The solve runs at every affected fraction, the whole list included: set-up
// and fill cost what the affected set touches, so a delta that re-solves
// everything costs about a full Evaluate and anything smaller costs less.
// EvaluateDelta runs a full Evaluate only when the call breaks its
// contract (no base, a list the base does not describe).
package flowmodel

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"fubar/internal/graph"
)

// Base captures one full evaluation of a bundle list so later
// EvaluateDelta calls can re-solve only the sub-problem a candidate
// perturbs. Capture with Eval.EvaluateBase; a captured Base is read-only
// and may be shared by any number of concurrently-evaluating arenas.
type Base struct {
	bundles  []Bundle
	rate     []float64
	sat      []bool
	byDemand []bool
	// weight/demand/tDemand cache every bundle's fill parameters so a
	// delta setup splices them instead of recomputing (weight 0 = inert).
	weight  []float64
	demand  []float64
	tDemand []float64
	// order is the base's sorted demand-event list; a delta fill picks the
	// affected set's events out of it instead of re-sorting. orderPos is
	// its inverse — bundle → rank in order, -1 for bundles without an
	// event — so the pick costs the affected set, not the list.
	order    []uint64
	orderPos []int32
	// linkBun lists each link's active crossing bundles in index order. A
	// capture cuts every list from linkArr, with crosserSlack entries of
	// room; patchBase moves one that outgrows them to an array of its own.
	linkBun [][]int32
	linkArr []int32
	// aggBun[aggOff[a]:aggOff[a+1]] are aggregate a's bundle indices, in
	// index order (aggBundles).
	aggBun   []int32
	aggOff   []int32
	linkLoad []float64
	linkDem  []float64
	isCong   []bool
	// binding marks links the base fill actually constrained — they
	// truncated a bundle or filled to (within float dust of) capacity.
	// They are the only conduits the affected-set fixpoint propagates
	// through eagerly; every other link is excluded optimistically and
	// verified by the final-load check.
	binding []bool
	aggUtil []float64 // post-division per-aggregate utilities
	// aggTerm caches every aggregate's term of the network-utility fold
	// (Model.networkTerm of aggUtil), so scoring a candidate re-derives
	// only the terms of the aggregates it dirtied.
	aggTerm []float64
	// total is aggTerm's index-order fold (the network utility before its
	// division by the total weight) and absTotal Σ|aggTerm|: the base half
	// of a bounded score's interval (deltaUtility).
	total, absTotal float64
	netUtility      float64
}

// Crossers returns the captured list's active crossers of link l, in
// ascending bundle index: every bundle with flows and a nonzero demand
// whose path uses l. Inert bundles — zero flows, or an aggregate whose
// per-flow demand is 0 — cross no link here, whatever their path. The
// slice is the base's own: read-only, valid until the base is next written.
func (b *Base) Crossers(l graph.EdgeID) []int32 { return b.linkBun[l] }

// DeltaStats counts an arena's incremental-evaluation activity.
type DeltaStats struct {
	// Calls is the number of EvaluateDelta invocations.
	Calls int64
	// Fallbacks counts calls that ran a full Evaluate instead because they
	// broke the contract: no base, a list of another length, a changed
	// index out of range or naming a bundle of another aggregate.
	Fallbacks int64
	// Expansions counts sub-problem re-runs, not calls: a link event that
	// reached a lazily-treated bundle whose promotion admitted a new
	// sub-problem link, or a load check that promoted a touched link. A
	// promotion that widens nothing continues in place and is not counted.
	Expansions int64
	// AffectedBundles accumulates the affected-set sizes of non-fallback
	// calls; AffectedBundles/(Calls-Fallbacks) is the mean sub-problem.
	AffectedBundles int64
	// ListBundles accumulates the candidate list lengths of non-fallback
	// calls, for computing the mean affected fraction. An optimizer's list
	// holds an entry per path-set entry, placeholders included, so the
	// fraction is of that list: it falls as path sets grow, with no change
	// in work.
	ListBundles int64
	// UtilityOnlyCalls counts the EvaluateDeltaUtility subset of Calls.
	UtilityOnlyCalls int64
}

// Add accumulates other into s.
func (s *DeltaStats) Add(other DeltaStats) {
	s.Calls += other.Calls
	s.Fallbacks += other.Fallbacks
	s.Expansions += other.Expansions
	s.AffectedBundles += other.AffectedBundles
	s.ListBundles += other.ListBundles
	s.UtilityOnlyCalls += other.UtilityOnlyCalls
}

// DeltaStats returns the arena's cumulative incremental-evaluation
// counters.
func (e *Eval) DeltaStats() DeltaStats { return e.stats }

// ResetDeltaStats zeroes the arena's counters — a long-lived arena
// reused across optimization runs resets them per run so each run's
// statistics stand alone.
func (e *Eval) ResetDeltaStats() { e.stats = DeltaStats{} }

// bindingSlack is the relative margin under capacity at which a link
// counts as filled: a load within float dust of capacity could fire a
// (possibly harmlessly tie-satisfied) saturation event whose timing the
// lazy closure would otherwise not model, so the load check promotes such
// links into the sub-problem.
const bindingSlack = 1e-9

// bindingEagerFrac classifies base links as binding up front: a link
// already loaded to this fraction of capacity is likely to reach it under
// the candidate's extra load, and modeling it eagerly is cheaper than a
// promote-and-rerun round. Purely a performance knob — the load check
// keeps exactness whatever its value.
const bindingEagerFrac = 0.98

// deltaScratch is the per-arena mutable state of affected-set
// computation. Marks are epoch-stamped so resets are O(1).
type deltaScratch struct {
	epoch     uint32
	bunMark   []uint32  // per bundle: affected
	chMark    []uint32  // per bundle: listed in changed
	eagerMark []uint32  // per bundle: already propagated eagerly
	linkMark  []uint32  // per link: in the sub-problem
	tchMark   []uint32  // per link: touched (load recompute only)
	aggMark   []uint32  // per aggregate: utility recompute needed
	affected  []int32   // affected bundle indices, discovery order
	subLinks  []int32   // sub-problem links, discovery order (worklist)
	touched   []int32   // touched slack links
	dirtyAggs []int32   // aggregates needing utility recompute
	seedMark  []uint32  // per link: crossed by a changed bundle
	tsMark    []uint32  // per link: touched-seed (demand+load recompute)
	seedLinks []int32   // seed links, discovery order
	tchSeed   []int32   // touched-seed links
	chCross   []int32   // scratch: changedCrossers' result
	rankBits  []uint64  // bitset over base.order ranks; all zero between uses
	lbScratch []int32   // scratch: crosser-list merge buffer (patchBase)
	wDelta    []float64 // per seed link: crossing-weight change; then per movedMark link: rate change
	dDelta    []float64 // per seed link: crossing-demand change; then per movedMark link: Σ|rate change|

	// The sub-problem's (bundle, link) incidences, rebuilt by every
	// accumulation pass: incHead[i] indexes the head of affected bundle
	// i's chain in inc (-1: none).
	incHead []int32
	inc     []incidence

	// movedMark[l] == movedEpoch marks links whose crossers' rates or
	// membership the current solve changed, and so whose wDelta/dDelta hold
	// this load check's sums; every other link carries its base load.
	// Bumped per load check.
	movedMark  []uint32
	movedEpoch uint32
}

// incidence is one sub-problem link an affected bundle crosses, and the
// index of the bundle's next one (-1: last).
type incidence struct{ link, next int32 }

// grow sizes the marks for a list of nB bundles over nL links and nA
// aggregates. A re-allocated array is zeroed, which is consistent with any
// epoch except 0, which bump() skips; one that shrinks and regrows within
// its capacity holds only stamps of earlier epochs.
func (d *deltaScratch) grow(nB, nL, nA int) {
	d.bunMark = resize(d.bunMark, nB)
	d.chMark = resize(d.chMark, nB)
	d.eagerMark = resize(d.eagerMark, nB)
	d.incHead = resize(d.incHead, nB)
	d.rankBits = resize(d.rankBits, (nB+63)/64)
	if len(d.linkMark) != nL {
		d.linkMark = make([]uint32, nL)
		d.tchMark = make([]uint32, nL)
		d.seedMark = make([]uint32, nL)
		d.tsMark = make([]uint32, nL)
		d.wDelta = make([]float64, nL)
		d.dDelta = make([]float64, nL)
		d.movedMark = make([]uint32, nL)
	}
	// The aggregate count follows the matrix an arena is re-bound to
	// (Eval.Rebind), which changes under a live arena.
	d.aggMark = resize(d.aggMark, nA)
}

func (d *deltaScratch) bump() {
	d.epoch++
	if d.epoch == 0 { // wrapped: stale stamps would alias the new epoch
		// The per-bundle arrays shrink and regrow with the list length;
		// clear their full capacity so no stale stamp survives in the
		// tail beyond the current length.
		clear(d.bunMark[:cap(d.bunMark)])
		clear(d.chMark[:cap(d.chMark)])
		clear(d.eagerMark[:cap(d.eagerMark)])
		clear(d.linkMark)
		clear(d.tchMark)
		clear(d.aggMark[:cap(d.aggMark)])
		clear(d.seedMark)
		clear(d.tsMark)
		d.epoch = 1
	}
	d.affected = d.affected[:0]
	d.subLinks = d.subLinks[:0]
	d.touched = d.touched[:0]
	d.dirtyAggs = d.dirtyAggs[:0]
	d.seedLinks = d.seedLinks[:0]
	d.tchSeed = d.tchSeed[:0]
}

// sumMoves starts a load check: it stamps, afresh, every link whose
// crossers the solve changed and sums the changes onto it. An affected
// bundle whose rate moved adds new − base rate along its path; a changed
// bundle takes its base rate off its base path and puts its new rate on
// its new one. A touched or touched-seed link's candidate load is then its
// base load plus wDelta, with Σ|change| in dDelta for loadVersus's bound.
func (e *Eval) sumMoves(c *Closure, bundles []Bundle, res *Result) {
	d := &e.delta
	base := c.base
	d.bumpMoved()
	for _, i := range d.affected {
		r, r0 := res.BundleRate[i], base.rate[i]
		switch {
		case d.chMark[i] == d.epoch:
			if base.weight[i] > 0 {
				for _, eid := range base.bundles[i].Edges {
					d.addMove(eid, -r0, r0)
				}
			}
			if e.weight[i] > 0 {
				for _, eid := range bundles[i].Edges {
					d.addMove(eid, r, r)
				}
			}
		case r != r0:
			for _, eid := range bundles[i].Edges {
				d.addMove(eid, r-r0, r+r0)
			}
		}
	}
	for _, i := range c.affected {
		if r, r0 := res.BundleRate[i], base.rate[i]; r != r0 && d.chMark[i] != d.epoch {
			for _, eid := range bundles[i].Edges {
				d.addMove(eid, r-r0, r+r0)
			}
		}
	}
}

// bumpMoved starts a load check's stamps, clearing them on a wrap: a stale
// stamp aliasing the new epoch would pass off old sums as this check's.
func (d *deltaScratch) bumpMoved() {
	d.movedEpoch++
	if d.movedEpoch == 0 {
		clear(d.movedMark)
		d.movedEpoch = 1
	}
}

// addMove adds one crosser's load change, and its magnitude, to link l's
// sums, starting them at the link's first change of the check.
func (d *deltaScratch) addMove(l graph.EdgeID, change, mag float64) {
	if d.movedMark[l] != d.movedEpoch {
		d.movedMark[l] = d.movedEpoch
		d.wDelta[l], d.dDelta[l] = 0, 0
	}
	d.wDelta[l] += change
	d.dDelta[l] += mag
}

// loadVersus decides whether link l's candidate load reaches thr from base,
// the exact unclamped fold of its base crossers' rates, and the sums
// sumMoves stamped on it, without re-summing: 1 if it certainly does, -1 if
// it certainly does not, 0 if the interval straddles thr. n bounds the
// link's crossers in either list. An unstamped link's load is base itself.
func (d *deltaScratch) loadVersus(l int32, base float64, n int, thr float64) int {
	lo, hi := base, base
	if d.movedMark[l] == d.movedEpoch {
		lo, hi = foldInterval(base, d.wDelta[l], base+d.dDelta[l], n)
	}
	switch {
	case lo >= thr:
		return 1
	case hi < thr:
		return -1
	}
	return 0
}

// foldInterval brackets the canonical-order fold F of a candidate's terms
// without computing it, from total, any fold of the base's terms, and inc,
// any fold of the changes (each a new term minus the one it replaces, or a
// term added or dropped). abs is Σ|base term| + Σ(|new| + |old|) over the
// changes, or a fold of those magnitudes; n bounds the terms of either
// list, and the changes number at most 2n. A fold of m terms is off its
// exact sum by at most γₘ·Σ|x| (Higham §4.2, γₘ = mu/(1−mu), u = 2⁻⁵³),
// so |fl(total+inc) − F| ≤ (4n+1)·u·abs to first order; the slack doubles
// that, which covers the higher-order terms and abs's own rounding for any
// n under 10¹³. Rounding is monotone, so with total+inc ± slack straddling
// F as reals, lo ≤ F ≤ hi — and fl(hi/w) ≥ fl(F/w) for any w > 0.
func foldInterval(total, inc, abs float64, n int) (lo, hi float64) {
	mid := total + inc
	slack := 8 * float64(n+1) * 0x1p-53 * abs
	return mid - slack, mid + slack
}

// EvaluateBase runs a full Evaluate over the bundle list and captures the
// outcome into base for subsequent EvaluateDelta calls. The captured Base
// is self-contained (it copies the list and the result) and read-only;
// base's storage is reused across captures. Returns the arena's Result,
// valid until the arena's next evaluation.
func (e *Eval) EvaluateBase(bundles []Bundle, base *Base) *Result {
	res := e.Evaluate(bundles)
	e.captureState(bundles, res, base)
	return res
}

// captureState copies the arena's post-Evaluate state into base. The
// arena must hold a complete full evaluation of bundles (every per-bundle
// and per-link array valid), which is true immediately after Evaluate.
//
// The per-bundle arrays are copied with GrowCap's headroom, which the
// placeholders RemapBase inserts then grow into in place.
func (e *Eval) captureState(bundles []Bundle, res *Result, base *Base) {
	nB := len(bundles)
	base.bundles = refill(base.bundles, bundles)
	base.rate = refill(base.rate, res.BundleRate)
	base.sat = refill(base.sat, res.BundleSatisfied)
	base.byDemand = refill(base.byDemand, e.byDemand[:nB])
	base.weight = refill(base.weight, e.weight[:nB])
	base.demand = refill(base.demand, e.demand[:nB])
	base.tDemand = refill(base.tDemand, e.tDemand[:nB])
	base.order = append(base.order[:0], e.order...)
	base.indexOrder()
	base.linkLoad = append(base.linkLoad[:0], res.LinkLoad...)
	base.linkDem = append(base.linkDem[:0], res.LinkDemand...)
	base.isCong = append(base.isCong[:0], res.IsCongested...)
	base.aggUtil = append(base.aggUtil[:0], res.AggUtility...)
	base.aggTerm = resize(base.aggTerm, len(base.aggUtil))
	for a, u := range base.aggUtil {
		base.aggTerm[a] = e.m.networkTerm(a, u)
	}
	base.foldTerms()
	base.netUtility = res.NetworkUtility
	nL := len(res.LinkLoad)
	if cap(base.linkBun) < nL {
		base.linkBun = make([][]int32, nL)
	}
	base.linkBun = base.linkBun[:nL]
	if cap(base.binding) < nL {
		base.binding = make([]bool, nL)
	}
	base.binding = base.binding[:nL]
	crossings := nL * crosserSlack
	for l := 0; l < nL; l++ {
		crossings += len(e.linkBun[l])
	}
	base.linkArr = resize(base.linkArr, crossings)
	at := 0
	for l := 0; l < nL; l++ {
		n := copy(base.linkArr[at:], e.linkBun[l])
		base.linkBun[l] = base.linkArr[at : at+n : at+n+crosserSlack]
		at += n + crosserSlack
		base.binding[l] = res.IsCongested[l] || res.LinkLoad[l] >= e.m.capacity[l]*bindingEagerFrac
	}
	base.indexAggs(e.m.mat.NumAggregates())
}

// indexAggs rebuilds aggBun and aggOff, each of nA aggregates' bundle
// indices, from the captured list: a count per aggregate, then every
// bundle placed at its aggregate's next slot.
func (b *Base) indexAggs(nA int) {
	b.aggOff = resize(b.aggOff, nA+1)
	off := b.aggOff
	clear(off)
	for _, bd := range b.bundles {
		off[bd.Agg+1]++
	}
	for a := 1; a <= nA; a++ {
		off[a] += off[a-1]
	}
	b.aggBun = resize(b.aggBun, len(b.bundles))
	for i, bd := range b.bundles {
		b.aggBun[off[bd.Agg]] = int32(i)
		off[bd.Agg]++
	}
	// Each aggregate's offset now points where the next one's begins.
	copy(off[1:], off[:nA])
	off[0] = 0
}

// aggBundles returns aggregate a's bundle indices in the captured list,
// read-only: cut to end at its capacity, like every window of one array.
func (b *Base) aggBundles(a int32) []int32 {
	lo, hi := b.aggOff[a], b.aggOff[a+1]
	return b.aggBun[lo:hi:hi]
}

// Closure is the part of one optimizer step's scoring sub-problem that the
// step's candidates share: the affected-set fixpoint seeded at the stepped
// link — a candidate's changed bundles all cross it, so every candidate's
// closure contains it — with its eager marks, touched links, per-link weight
// and demand folds, crosser lists (the base's), incidence chains and slice
// of the base's demand order. A candidate scored against it
// (EvaluateDeltaUtility, EvaluateDelta) extends it read-only: its own marks are
// its epoch stamps OR the closure's, its fixpoint runs only over links the
// closure lacks, and it re-folds only the closure links a changed bundle
// crosses. The closure is a least fixpoint of monotone rules, so extending
// it reaches the very sets a candidate computes alone, and the score is the
// same bit for bit. The closure of no seed link is empty and shares
// nothing.
//
// A closure lives in the scratch of the arena that built it (Eval.Closure):
// it is valid until that arena's next evaluation or closure, any number of
// other arenas may score against it concurrently, and the building arena
// itself may score only against an empty one.
type Closure struct {
	base  *Base
	owner *Eval
	// gen names this build for the arenas that prime their fill parameters
	// from it (Eval.prime); unique across arenas and builds.
	gen   uint64
	epoch uint32 // the stamp of the marks below
	// Per bundle or link, stamped epoch: affected, eager, in the
	// sub-problem, touched.
	bunMark, eagerMark, linkMark, tchMark []uint32
	// affected bundles, sub-problem links and touched links, discovery order.
	affected, subLinks, touched []int32
	// incHead[i] heads affected bundle i's chain of sub-problem links in inc.
	incHead []int32
	inc     []incidence
	// linkW and linkDem hold each sub-problem link's weight and demand
	// folds over its base crossers, in index order.
	linkW, linkDem []float64
	// order is the affected bundles' demand keys, ascending: the slice of
	// the base's order a candidate merges its own keys into.
	order []uint64
}

// closureGen numbers closure builds across every arena.
var closureGen atomic.Uint64

// Closure computes on arena e the closure of the seed links over base: the
// sub-problem every candidate scored against it shares. A seed link that
// does not bind in the base seeds nothing — a candidate admits it only from
// its own demand shift — so the closure of a non-binding link, like the
// closure of no link, is empty. Candidates scored against the closure must
// each change a bundle that crosses every binding seed link in the base,
// which is what makes the closure part of theirs; an optimizer step's moves
// off its link do. The closure is written into e's delta scratch and fill
// arrays, which a base arena leaves idle while the step's candidates are
// scored on other arenas, and is valid until e's next evaluation or closure.
func (e *Eval) Closure(base *Base, seeds ...graph.EdgeID) *Closure {
	c := &e.closure
	if base == nil {
		*c = Closure{owner: e}
		return c
	}
	d := &e.delta
	d.grow(len(base.bundles), e.m.topo.NumLinks(), e.m.mat.NumAggregates())
	d.bump()
	*c = Closure{
		base: base, owner: e, gen: closureGen.Add(1), epoch: d.epoch,
		bunMark: d.bunMark, eagerMark: d.eagerMark, linkMark: d.linkMark, tchMark: d.tchMark,
		incHead: d.incHead, linkW: e.linkW, linkDem: e.res.LinkDemand,
	}
	// The closure's own marks are its outer layer too: every test of the
	// fixpoint reads them twice.
	for _, l := range seeds {
		if base.binding[l] {
			d.addSubLink(c, int32(l))
		}
	}
	d.closeOver(c, base, base.bundles, 0)
	d.inc = d.inc[:0]
	for _, i := range d.affected {
		d.incHead[i] = -1
		rank := base.orderPos[i] // crossers are active: every one has a demand event
		d.rankBits[rank>>6] |= 1 << (rank & 63)
	}
	for _, l := range d.subLinks {
		var w, dem float64
		for _, bi := range base.linkBun[l] {
			w += base.weight[bi]
			dem += base.demand[bi]
			d.chain(bi, l)
		}
		e.linkW[l], e.res.LinkDemand[l] = w, dem
	}
	e.order = d.takeRanks(base, e.order[:0], nil, nil)
	c.affected, c.subLinks, c.touched, c.inc, c.order = d.affected, d.subLinks, d.touched, d.inc, e.order
	return c
}

// prime copies the closure's bundles' fill parameters from its base into
// the arena, once per closure: a candidate scored against it then writes
// only its changed bundles', and puts those back when it is done.
func (e *Eval) prime(c *Closure) {
	for _, i := range c.affected {
		e.primeBundle(c.base, i)
	}
	e.primed, e.primedGen = c, c.gen
}

func (e *Eval) primeBundle(base *Base, i int32) {
	e.weight[i], e.demand[i], e.tDemand[i] = base.weight[i], base.demand[i], base.tDemand[i]
}

// EvaluateDelta evaluates a candidate bundle list incrementally against the
// base a closure carries, extending the closure's shared sub-problem. The
// candidate list must have the same length as the base's list; every index
// not in changed must hold a bundle identical to the base's at that index,
// and changed bundles must keep their base aggregate (Flows, Edges and
// Delay may differ freely). changed lists the indices that may differ and
// may safely over-approximate. The result — rates, satisfaction, link loads
// and demands, congested set, utilities — is bit-identical to
// Evaluate(bundles), however much of the list the move affects and
// whatever closure it extends; only the work is smaller. A call that breaks
// the contract where that is cheap to see — base never captured, another
// list length, a changed index out of range or of another aggregate, no
// closure, the closure's own arena scoring against its non-empty closure —
// runs a full Evaluate instead.
func (e *Eval) EvaluateDelta(c *Closure, bundles []Bundle, changed []int) *Result {
	res, _ := e.evaluateDelta(c, bundles, changed, false, math.Inf(-1))
	return res
}

// EvaluateDeltaUtility scores a candidate list like EvaluateDelta and
// returns only its NetworkUtility, skipping Result finalization entirely:
// no base-rate splice into the Result arrays, no per-link load summation,
// no Congested rebuild, no utilization metrics. A score that cannot exceed
// bound is not folded either. With u the utility EvaluateDelta(c, bundles,
// changed).NetworkUtility: if u > bound the result is u bit for bit;
// otherwise it lies in [u, bound]. So "result > bound" is "u > bound", and
// math.Inf(-1) asks for u every time. The cost is proportional to the
// affected sub-problem less what the closure shares, plus one index-order
// fold over the aggregates when the bound cannot decide. The bool reports
// whether the call fell back to a full Evaluate (same contract as
// EvaluateDelta; the utility is exact then). The arena's Result is left
// partially written and must not be read.
func (e *Eval) EvaluateDeltaUtility(c *Closure, bundles []Bundle, changed []int, bound float64) (float64, bool) {
	res, fellBack := e.evaluateDelta(c, bundles, changed, true, bound)
	return res.NetworkUtility, fellBack
}

// evaluateDelta is EvaluateDelta plus a flag reporting whether the call
// fell back to a full Evaluate (in which case the arena holds a complete
// full-evaluation state for the list, capturable by captureState), against
// the base a closure carries and extending the closure.
// utilityOnly elides every Result field except NetworkUtility: the
// base-rate/satisfaction splice, per-link load/demand/congestion copies
// and finalization are skipped, and reads of unaffected bundles' rates go
// to the base directly (deltaRate). The affected sub-problem's solve —
// fill, lazy guard, load checks — is identical in both modes; bound is
// EvaluateDeltaUtility's.
//
// Every set the solve reads is the two layers' union: the closure's
// affected bundles, eager bundles, sub-problem and touched links, and the
// candidate's own, stamped in its scratch. A closure link the candidate
// also seeds is load-checked once, as touched-seed, and the closure's
// chains, folds and crosser lists stand for every bundle and link the
// candidate did not change.
func (e *Eval) evaluateDelta(c *Closure, bundles []Bundle, changed []int, utilityOnly bool, bound float64) (*Result, bool) {
	e.stats.Calls++
	if utilityOnly {
		e.stats.UtilityOnlyCalls++
	}
	fallback := func() (*Result, bool) {
		e.stats.Fallbacks++
		return e.Evaluate(bundles), true
	}
	if c == nil || c.base == nil || c.owner == e && len(c.subLinks) > 0 {
		return fallback()
	}
	base := c.base
	nB := len(bundles)
	if len(base.bundles) != nB || nB == 0 {
		return fallback()
	}
	for _, i := range changed {
		if i < 0 || i >= nB || bundles[i].Agg != base.bundles[i].Agg {
			return fallback()
		}
	}
	m := e.m
	nL := m.topo.NumLinks()
	d := &e.delta
	d.grow(nB, nL, m.mat.NumAggregates())
	d.bump()
	e.grow(nB)
	if e.primed != c || e.primedGen != c.gen {
		e.prime(c)
	}

	// Seeds: the changed bundles (eager) and every link they cross in
	// either list, with d.wDelta/d.dDelta accumulating each seed link's
	// crossing-weight and crossing-demand change.
	for _, ci := range changed {
		if d.chMark[ci] == d.epoch {
			continue // duplicate index in changed: already seeded
		}
		d.bunMark[ci] = d.epoch
		d.chMark[ci] = d.epoch
		d.eagerMark[ci] = d.epoch
		d.affected = append(d.affected, int32(ci))
		for _, eid := range base.bundles[ci].Edges {
			d.addSeedLink(int32(eid))
		}
		for _, eid := range bundles[ci].Edges {
			d.addSeedLink(int32(eid))
		}
		if w := activeWeight(m, base.bundles[ci]); w > 0 {
			dem := m.demandPer[base.bundles[ci].Agg] * float64(base.bundles[ci].Flows)
			for _, eid := range base.bundles[ci].Edges {
				d.wDelta[eid] -= w
				d.dDelta[eid] -= dem
			}
		}
		if w := activeWeight(m, bundles[ci]); w > 0 {
			dem := m.demandPer[bundles[ci].Agg] * float64(bundles[ci].Flows)
			for _, eid := range bundles[ci].Edges {
				d.wDelta[eid] += w
				d.dDelta[eid] += dem
			}
		}
	}

	// Classify the seed links. Binding ones, and ones the move's added
	// demand projects to fill (base load plus the demand shift reaching
	// capacity — the to-path links of a sizeable move), join the
	// sub-problem: they can truncate, so every crosser must be re-solved.
	// The rest cannot fire an effective saturation event in either fill
	// (same argument as for ordinary touched links, verified by the same
	// final-load check) and only need their demand and load bookkeeping
	// recomputed over the changed crossing set — which keeps the affected
	// set proportional to the move's congested neighborhood instead of
	// every crosser of every link the move merely brushes.
	for _, l := range d.seedLinks {
		if base.binding[l] ||
			base.linkLoad[l]+max(d.dDelta[l], 0) >= m.capacity[l]*(1-bindingSlack) {
			d.addSubLink(c, l)
		} else {
			d.tsMark[l] = d.epoch
			d.tchSeed = append(d.tchSeed, l)
		}
	}

	// Risk promotion: a sub-problem seed link that gained crossing weight
	// saturates earlier, which is exactly what truncates previously
	// demand-frozen crossers. Promoting those crossers to eager up front
	// usually saves the verify-expand-rerun cycle; the in-fill guard
	// still catches the cases this heuristic misses.
	for _, l := range d.seedLinks {
		if d.tsMark[l] == d.epoch || d.wDelta[l] <= 0 {
			continue
		}
		for _, bi := range base.linkBun[l] {
			if !d.affects(c, bi) {
				d.bunMark[bi] = d.epoch
				d.affected = append(d.affected, bi)
			}
			if !d.eager(c, bi) {
				d.eagerMark[bi] = d.epoch
				d.propagate(c, base, bundles[bi].Edges)
			}
		}
	}

	res := &e.res
	if utilityOnly {
		// Scoring only: leave the Result arrays stale. Affected bundles'
		// entries are (re)written by setup and the fill; every read of a
		// possibly-unaffected entry goes through deltaRate, which falls
		// back to the base. The O(nB)+O(nL)+O(nA) splice below is the
		// bulk of a small delta's cost — skipping it is the point.
		res.BundleRate = res.BundleRate[:nB]
		res.BundleSatisfied = res.BundleSatisfied[:nB]
	} else {
		res.BundleRate = append(res.BundleRate[:0], base.rate...)
		res.BundleSatisfied = append(res.BundleSatisfied[:0], base.sat...)
		copy(res.LinkLoad, base.linkLoad)
		copy(res.LinkDemand, base.linkDem)
		copy(res.IsCongested, base.isCong)
		copy(res.AggUtility, base.aggUtil)
	}

	// Optimistic closure + sub-problem fill, re-run after promoting any
	// lazily-treated bundle the candidate truncated.
	closed := 0 // d.subLinks prefix already processed by the fixpoint
	shared := 0 // the closure's affected bundles the candidate did not change
	for {
		// Fixpoint over the links the closure lacks: crossers of
		// sub-problem links are affected; eager bundles recruit their
		// congestible links into the sub-problem and mark their slack links
		// touched; demand-frozen bundles stay lazy.
		closed = d.closeOver(c, base, bundles, closed)

		// Per-bundle fill parameters, in no particular order: nothing here
		// accumulates. The closure's bundles hold theirs since prime; the
		// candidate's changed bundles compute theirs; the rest of its own
		// splice the base's (bit-identical by definition) and flag their
		// demand event by its rank in the base's order. Every active bundle
		// freezes in the fill, which writes its rate then.
		active := 0
		shared = 0
		for _, i := range c.affected {
			if d.chMark[i] == d.epoch {
				continue
			}
			shared++
			d.incHead[i] = -1
			e.frozen[i] = false
		}
		active += shared // the closure's bundles are active crossers
		for _, i := range d.affected {
			d.incHead[i] = -1
			if d.chMark[i] == d.epoch {
				active += e.setupParams(bundles, int(i), res)
				continue
			}
			w := base.weight[i]
			e.weight[i] = w
			e.demand[i] = base.demand[i]
			e.tDemand[i] = base.tDemand[i]
			if w == 0 {
				// Inert in the base, hence inert now: its spliced base
				// rate/satisfaction already stand. In utility-only mode
				// nothing was spliced, so write them — deltaUtility reads
				// every affected entry from res.
				e.frozen[i] = true
				e.byDemand[i] = true
				if utilityOnly {
					res.BundleRate[i] = base.rate[i]
					res.BundleSatisfied[i] = base.sat[i]
				}
				continue
			}
			res.BundleRate[i] = 0
			res.BundleSatisfied[i] = false
			e.frozen[i] = false
			active++
			rank := base.orderPos[i]
			d.rankBits[rank>>6] |= 1 << (rank & 63)
		}

		// Per-link accumulation, in canonical (bundle index) order. Every
		// active crosser of a sub-problem link is affected (the closure
		// property), so the link's candidate crossers are the base's
		// ascending list with the changed bundles' membership adjusted —
		// walking it adds the same weights and demands, in the same order,
		// as a pass over the sorted affected set would. Each crossing is
		// also chained onto its bundle, which is what lets freezeBundle
		// leave affected bundles' slack links alone. A closure link keeps
		// its folds, crossers and chains unless a changed bundle crosses
		// it; then it is re-folded, and only the changed crossings chained.
		d.inc = d.inc[:0]
		for _, l := range c.subLinks {
			if d.seedMark[l] == d.epoch {
				e.foldLink(base, bundles, l, changed, true)
				continue
			}
			e.linkW[l] = c.linkW[l]
			e.linkFrozen[l] = 0
			res.LinkDemand[l] = c.linkDem[l]
			res.IsCongested[l] = false
		}
		for _, l := range d.subLinks {
			e.foldLink(base, bundles, l, changed, false)
		}

		// Demand events: the closure's sorted keys less the changed
		// bundles', merged with the flagged ranks — the base's sorted order
		// restricted to the candidate's own active unchanged affected
		// bundles; then merge in the (few) changed ones — same keys, same
		// relative order as a fresh sort.
		e.order = d.takeRanks(base, e.order[:0], c.order, d.chMark)
		for _, ci := range changed {
			if !e.frozen[ci] {
				k := uint64(math.Float32bits(float32(e.tDemand[ci])))<<32 | uint64(uint32(ci))
				if at, dup := slices.BinarySearch(e.order, k); !dup {
					e.order = slices.Insert(e.order, at, k)
				}
			}
		}
		e.events.reset()
		for _, links := range [2][]int32{c.subLinks, d.subLinks} {
			for _, l := range links {
				if e.linkW[l] > 0 {
					e.events.update(l, (m.capacity[l]-e.linkFrozen[l])/e.linkW[l])
				}
			}
		}
		e.events.start()
		e.sub = c
		widened := e.fill(bundles, active, res)
		e.sub = nil
		if widened {
			// Optimistic closure missed: a link event truncates bundles
			// assumed to stay demand-frozen, and widen's promotion of them
			// admitted new sub-problem links. Re-run wider: the fixpoint
			// takes in the new links' crossers, the next setup pass
			// rewrites every affected bundle's entries, the sub reset
			// re-zeroes every sub link (including freshly promoted ones,
			// whose res bookkeeping still holds untouched base values),
			// and loads are only written after the loop — nothing needs
			// restoring.
			e.stats.Expansions++
			continue
		}
		// Load-check the optimistically excluded links: link load is
		// non-decreasing over a fill, so a touched link whose final load
		// stays under capacity provably never saturated — excluding it was
		// exact. One that reached capacity is promoted into the sub-problem
		// and the solve re-runs. Touched and touched-seed links do not bind
		// in the base, so their base loads are exact, unclamped folds, and
		// a candidate load is decided from the base load plus its crossers'
		// rate changes (loadVersus). Only a load whose interval straddles
		// the threshold is re-summed over its crossers in canonical order.
		promoted := false
		if len(c.touched)+len(d.touched)+len(d.tchSeed) > 0 {
			e.sumMoves(c, bundles, res)
		}
		for li, links := range [3][]int32{c.touched, d.touched, d.tchSeed} {
			for _, l := range links {
				if d.linkMark[l] == d.epoch || li == 0 && d.tsMark[l] == d.epoch {
					continue // promoted into the sub-problem, or checked as touched-seed
				}
				e.checked++
				thr := m.capacity[l] * (1 - bindingSlack)
				reaches := d.loadVersus(l, base.linkLoad[l], nB, thr)
				if reaches == 0 {
					e.resummed++
					reaches = cmp.Compare(e.resumTouched(c, bundles, l, changed, res), thr)
				}
				if reaches >= 0 {
					d.addSubLink(c, l)
					promoted = true
				}
			}
		}
		if !promoted {
			break
		}
		e.stats.Expansions++
	}
	e.stats.AffectedBundles += int64(len(d.affected) + shared)
	e.stats.ListBundles += int64(nB)

	// Finalize the loads in canonical order: sub-problem links from their
	// rebuilt crosser lists, touched and touched-seed links the last load
	// check stamped over their candidate crossers; the rest keep the
	// spliced base values. Utility-only scoring skips all of it: nothing
	// downstream reads link loads or the congested list.
	if !utilityOnly {
		for _, links := range [2][]int32{c.subLinks, d.subLinks} {
			for _, l := range links {
				res.LinkLoad[l] = e.linkLoadOf(res, e.crossers(c, l), m.capacity[l])
			}
		}
		for li, links := range [3][]int32{c.touched, d.touched, d.tchSeed} {
			for _, l := range links {
				if d.linkMark[l] != d.epoch && (li > 0 || d.tsMark[l] != d.epoch) && d.movedMark[l] == d.movedEpoch {
					e.resumTouched(c, bundles, l, changed, res)
				}
			}
		}
		e.rebuildCongested(res)
	}
	e.deltaUtility(c, bundles, changed, res, bound)
	if !utilityOnly {
		e.computeUtilization(res)
	}
	// Put back the closure bundles' fill parameters the candidate changed.
	for _, ci := range changed {
		if c.bunMark[ci] == c.epoch {
			e.primeBundle(base, int32(ci))
		}
	}
	return res, false
}

// foldLink sets up sub-problem link l for the fill: its crossing weight and
// demand, folded in index order over the base's crossers with the changed
// bundles' membership adjusted, and its crosser list in the arena's own
// storage — never the base's, which Evaluate's reuse of linkBun would write
// into. Each crossing is chained onto its bundle; on a closure link
// (shared) only the changed bundles' are, the closure chaining the rest.
func (e *Eval) foldLink(base *Base, bundles []Bundle, l int32, changed []int, shared bool) {
	d := &e.delta
	var ch []int32 // changed bundles crossing l: seed links only
	if d.seedMark[l] == d.epoch {
		ch = e.changedCrossers(bundles, l, changed)
	}
	var w, dem float64
	lb := e.linkBun[l][:0]
	k := 0
	for _, bi := range base.linkBun[l] {
		if d.chMark[bi] == d.epoch {
			continue // old membership; merged back below if still crossing
		}
		for ; k < len(ch) && ch[k] < bi; k++ {
			w += e.weight[ch[k]]
			dem += e.demand[ch[k]]
			lb = append(lb, ch[k])
			d.chain(ch[k], l)
		}
		w += base.weight[bi]
		dem += base.demand[bi]
		lb = append(lb, bi)
		if !shared {
			d.chain(bi, l)
		}
	}
	for ; k < len(ch); k++ {
		w += e.weight[ch[k]]
		dem += e.demand[ch[k]]
		lb = append(lb, ch[k])
		d.chain(ch[k], l)
	}
	e.linkW[l] = w
	e.linkFrozen[l] = 0
	e.linkBun[l] = lb
	e.res.LinkDemand[l] = dem
	e.res.IsCongested[l] = false
}

// chain records that affected bundle bi crosses sub-problem link l.
func (d *deltaScratch) chain(bi, l int32) {
	d.inc = append(d.inc, incidence{link: l, next: d.incHead[bi]})
	d.incHead[bi] = int32(len(d.inc) - 1)
}

// takeRanks appends to order, ascending, the base's demand keys at the
// ranks flagged in rankBits, clearing the flags, merged with shared, a
// sorted key list, less its keys of bundles stamped in skip (nil: none).
func (d *deltaScratch) takeRanks(base *Base, order, shared []uint64, skip []uint32) []uint64 {
	j := 0
	take := func(below uint64) {
		for ; j < len(shared) && shared[j] < below; j++ {
			if k := shared[j]; skip == nil || skip[uint32(k)] != d.epoch {
				order = append(order, k)
			}
		}
	}
	for wi, word := range d.rankBits[:(len(base.order)+63)/64] {
		if word == 0 {
			continue
		}
		d.rankBits[wi] = 0
		for ; word != 0; word &= word - 1 {
			k := base.order[wi<<6|bits.TrailingZeros64(word)]
			take(k)
			order = append(order, k)
		}
	}
	take(math.MaxUint64) // no key reaches it: float32 bits of a time stay below 2³²−1
	return order
}

// crossers returns sub-problem link l's candidate crossers under closure c:
// the base's list for a closure link no changed bundle crosses, the
// arena's rebuilt one otherwise.
func (e *Eval) crossers(c *Closure, l int32) []int32 {
	if c.linkMark[l] == c.epoch && e.delta.seedMark[l] != e.delta.epoch {
		return c.base.linkBun[l]
	}
	return e.linkBun[l]
}

// affects and eager read a bundle's two-layer marks: the candidate's own
// stamps OR the closure's.
func (d *deltaScratch) affects(c *Closure, bi int32) bool {
	return d.bunMark[bi] == d.epoch || c.bunMark[bi] == c.epoch
}

func (d *deltaScratch) eager(c *Closure, bi int32) bool {
	return d.eagerMark[bi] == d.epoch || c.eagerMark[bi] == c.epoch
}

// closeOver runs the affected-set fixpoint over d.subLinks from index from,
// the worklist, to its end, extending closure c, and returns the new end:
// crossers of a sub-problem link are affected; those the base froze at a
// link event propagate eagerly; demand-frozen ones stay lazy.
func (d *deltaScratch) closeOver(c *Closure, base *Base, bundles []Bundle, from int) int {
	for ; from < len(d.subLinks); from++ {
		l := d.subLinks[from]
		for _, bi := range base.linkBun[l] {
			if d.affects(c, bi) {
				continue
			}
			d.bunMark[bi] = d.epoch
			d.affected = append(d.affected, bi)
			if base.byDemand[bi] {
				continue // lazy: transmits nothing while it stays demand-frozen
			}
			d.eagerMark[bi] = d.epoch
			d.propagate(c, base, bundles[bi].Edges)
		}
	}
	return from
}

// deltaRate reads a bundle's candidate rate: affected bundles' rates are
// (re)written in res by the current delta solve; everything else keeps
// its base rate. In full-result mode res spliced the base rates up front
// so both branches agree; in utility-only mode the unaffected entries of
// res are stale and the base is authoritative. Either way the value is
// the one a full evaluation would produce, so accumulations built from
// deltaRate stay bit-identical across modes.
func (e *Eval) deltaRate(res *Result, c *Closure, bi int32) float64 {
	if e.delta.affects(c, bi) {
		return res.BundleRate[bi]
	}
	return c.base.rate[bi]
}

// widen promotes every lazy crosser of link l, whose saturation event has
// reached a bundle the closure treated lazily, to eager: their influence now
// propagates (propagate), and reports whether that admitted a link into the
// sub-problem. If it did not, the fill goes on in place: a re-run would set
// up the same links, bundles, parameters and demand order — the fixpoint has
// nothing new to close over, and the links the promotion touched are only
// load-checked after the fill — so it would replay this fill event for event
// up to this one and then freeze l's crossers as the fill is about to. The
// promotion is the one the re-run would start from, so a fill that aborts
// later leaves its re-run what an abort here would have. Only the eager
// marks, not the frozen state, feed the promotion, so the crossers an event
// froze before reaching the lazy one do not change it.
func (e *Eval) widen(bundles []Bundle, l int32) bool {
	d := &e.delta
	c := e.sub
	n := len(d.subLinks)
	for _, bi := range c.base.linkBun[l] {
		if !d.eager(c, bi) {
			d.eagerMark[bi] = d.epoch
			d.propagate(c, c.base, bundles[bi].Edges)
		}
	}
	if len(d.subLinks) > n {
		e.aborted++
		return true
	}
	e.continued++
	return false
}

// activeWeight returns the filling weight (flows/RTT) a bundle
// contributes to its links, or 0 for inert bundles.
func activeWeight(m *Model, b Bundle) float64 {
	if len(b.Edges) == 0 || b.Flows <= 0 || m.demandPer[b.Agg]*float64(b.Flows) == 0 {
		return 0
	}
	return float64(b.Flows) / b.RTT()
}

// addSubLink admits a link into the sub-problem unless it is there already,
// in either layer.
func (d *deltaScratch) addSubLink(c *Closure, eid int32) {
	if d.linkMark[eid] != d.epoch && c.linkMark[eid] != c.epoch {
		d.linkMark[eid] = d.epoch
		d.subLinks = append(d.subLinks, eid)
	}
}

// addSeedLink records a link crossed by a changed bundle (idempotent) and
// starts its weight and demand sums; classification into sub-problem vs
// touched-seed happens once they are complete.
func (d *deltaScratch) addSeedLink(eid int32) {
	if d.seedMark[eid] != d.epoch {
		d.seedMark[eid] = d.epoch
		d.seedLinks = append(d.seedLinks, eid)
		d.wDelta[eid], d.dDelta[eid] = 0, 0
	}
}

// propagate routes an eager bundle's influence: binding links join the
// sub-problem, all other links are only touched — their loads are
// recomputed (and load-checked) at finalize. Touched-seed links already
// have their own recompute path. Either layer's marks count.
func (d *deltaScratch) propagate(c *Closure, base *Base, edges []graph.EdgeID) {
	for _, eid := range edges {
		if d.linkMark[eid] == d.epoch || c.linkMark[eid] == c.epoch || d.tsMark[eid] == d.epoch {
			continue
		}
		if base.binding[eid] {
			d.addSubLink(c, int32(eid))
		} else if d.tchMark[eid] != d.epoch && c.tchMark[eid] != c.epoch {
			d.tchMark[eid] = d.epoch
			d.touched = append(d.touched, int32(eid))
		}
	}
}

// changedCrossers lists the changed bundles that actively cross link l in
// the candidate list, ascending and without duplicates (changed may name
// an index twice): what a seed link's crosser list gains over the base's
// once the changed bundles' old memberships are dropped. Valid once the
// changed bundles' fill parameters are set up; the result is scratch,
// overwritten by the next call.
func (e *Eval) changedCrossers(bundles []Bundle, l int32, changed []int) []int32 {
	ch := e.delta.chCross[:0]
	for _, ci := range changed {
		if e.weight[ci] > 0 && slices.Contains(bundles[ci].Edges, graph.EdgeID(l)) {
			ch = append(ch, int32(ci))
		}
	}
	slices.Sort(ch)
	ch = slices.Compact(ch)
	e.delta.chCross = ch
	return ch
}

// resumTouched recomputes a touched or touched-seed link's demand and load
// over the candidate's crossing set — the base's active crossers with the
// changed bundles' membership adjusted (a touched link has no changed
// crossers) — in bundle-index order, matching the full evaluation's
// accumulation bit for bit: a full Result's finalize, and the load check's
// when loadVersus cannot decide. Returns the clamped load.
func (e *Eval) resumTouched(c *Closure, bundles []Bundle, l int32, changed []int, res *Result) float64 {
	d := &e.delta
	base := c.base
	var ch []int32
	if d.seedMark[l] == d.epoch {
		ch = e.changedCrossers(bundles, l, changed)
	}
	var dem, load float64
	k := 0
	take := func(bi int32) {
		dem += e.demand[bi]
		load += res.BundleRate[bi] // changed bundles are affected: res is valid
	}
	for _, bi := range base.linkBun[l] {
		if d.chMark[bi] == d.epoch {
			continue // old membership; merged back below if still crossing
		}
		for k < len(ch) && ch[k] < bi {
			take(ch[k])
			k++
		}
		dem += base.demand[bi]
		load += e.deltaRate(res, c, bi)
	}
	for ; k < len(ch); k++ {
		take(ch[k])
	}
	res.LinkDemand[l] = dem
	if load > e.m.capacity[l] {
		load = e.m.capacity[l]
	}
	res.LinkLoad[l] = load
	return load
}

// deltaUtility recomputes utility for the aggregates whose bundles
// actually changed outcome (or were patched), reusing the base's
// utilities for every other aggregate. Unless the base's fold plus the
// dirty terms' changes bounds the network utility at or under bound (then
// that upper end is the score), it re-folds the network total over every
// aggregate in index order — the same accumulation the full path
// performs, so the result is bit-identical. It reads rates via deltaRate
// and folds non-dirty aggregates from the base's cached terms, so it is
// valid in utility-only mode too (where res was never spliced); in
// full-result mode the base values equal the spliced res values, so both
// modes fold the identical numbers.
func (e *Eval) deltaUtility(c *Closure, bundles []Bundle, changed []int, res *Result, bound float64) {
	m := e.m
	d := &e.delta
	base := c.base
	markAgg := func(a int32) {
		if d.aggMark[a] != d.epoch {
			d.aggMark[a] = d.epoch
			d.dirtyAggs = append(d.dirtyAggs, a)
		}
	}
	for _, i := range changed {
		markAgg(int32(bundles[i].Agg))
	}
	for _, affected := range [2][]int32{d.affected, c.affected} {
		for _, i := range affected {
			// A verified-unchanged outcome contributes the identical utility
			// term; only rate or satisfaction changes dirty the aggregate.
			// (Affected entries of res are always valid, in both modes.)
			if res.BundleRate[i] != base.rate[i] || res.BundleSatisfied[i] != base.sat[i] {
				markAgg(int32(bundles[i].Agg))
			}
		}
	}
	for _, a := range d.dirtyAggs {
		var sum float64
		for _, bi := range base.aggBundles(a) {
			b := &bundles[bi]
			if b.Flows <= 0 {
				continue
			}
			sum += m.utilityTerm(b, e.deltaRate(res, c, bi))
		}
		if f := float64(m.aggFlows[a]); f > 0 {
			sum /= f
		}
		res.AggUtility[a] = sum
	}
	if m.totalWeight <= 0 {
		res.NetworkUtility = 0
		return
	}
	var inc, abs float64
	for _, a := range d.dirtyAggs {
		t, t0 := m.networkTerm(int(a), res.AggUtility[a]), base.aggTerm[a]
		inc += t - t0
		abs += math.Abs(t) + math.Abs(t0)
	}
	_, hi := foldInterval(base.total, inc, base.absTotal+abs, len(base.aggTerm))
	if u := hi / m.totalWeight; u <= bound {
		e.bounded++
		res.NetworkUtility = u
		return
	}
	var total float64
	for a, term := range base.aggTerm {
		if d.aggMark[a] == d.epoch {
			term = m.networkTerm(a, res.AggUtility[a])
		}
		total += term
	}
	res.NetworkUtility = total / m.totalWeight
}

// foldTerms sets total to aggTerm's index-order fold — computeUtility's
// and deltaUtility's — and absTotal to Σ|aggTerm|.
func (b *Base) foldTerms() {
	b.total, b.absTotal = 0, 0
	for _, t := range b.aggTerm {
		b.total += t
		b.absTotal += math.Abs(t)
	}
}
