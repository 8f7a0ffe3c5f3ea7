// Base persistence: keep one captured Base alive across optimizer steps
// instead of re-running a full evaluation per step.
//
// Two operations make that possible:
//
//   - CommitDelta folds a committed move back into the Base: the move is
//     evaluated incrementally (EvaluateDelta) and the affected slice of
//     the capture — rates, freeze modes, link crosser lists, demand-event
//     order, bindings — is patched in place, so the Base now captures the
//     post-commit allocation without a fresh water-filling.
//
//   - RemapBase translates a Base onto a new bundle-list layout holding
//     the same active bundles in the same relative order. Optimizer steps
//     densify different aggregates (zero-flow placeholder entries come
//     and go with the step's candidate set), but placeholders are inert
//     in the model, so the capture carries over index-remapped, again
//     without a fresh evaluation.
//
// Both operations produce a Base bit-identical to what EvaluateBase
// would capture for the same list: CommitDelta's patch writes exactly
// the values the delta fill proved equal to a full evaluation, and
// RemapBase only moves values between indices. Every structural
// assumption (monotonic mapping, placeholder inertness, dropped entries
// being inert) is verified, with a false return directing the caller to
// a full recapture.
package flowmodel

import (
	"math"
	"slices"
)

// CommitDelta evaluates the patched bundle list incrementally against
// base (exactly like EvaluateDelta) and then folds the outcome back into
// base, so base captures bundles without a fresh full evaluation. The
// returned Result is the arena's, valid until its next evaluation; the
// bool reports whether the fold was an in-place patch (true) or the call
// fell back to a full evaluation and recapture (false — same outcome,
// full cost). The same contract as EvaluateDelta applies to changed.
func (e *Eval) CommitDelta(base *Base, bundles []Bundle, changed []int) (*Result, bool) {
	res, fellBack := e.evaluateDelta(base, bundles, changed, false, math.Inf(-1))
	if fellBack {
		e.captureState(bundles, res, base)
		return res, false
	}
	e.patchBase(base, bundles, changed, res)
	return res, true
}

// patchBase folds a just-completed (non-fallback) evaluateDelta outcome
// into base. The delta scratch (affected set, sub-problem and touched
// link lists, changed marks) must still describe that call.
func (e *Eval) patchBase(base *Base, bundles []Bundle, changed []int, res *Result) {
	d := &e.delta
	m := e.m

	// Demand-event order first (it reads the changed marks but nothing
	// the patches below overwrite): drop the changed bundles' old keys,
	// then re-insert the ones still active under their new demand times.
	// Unchanged affected bundles spliced their base fill parameters, so
	// their keys are already correct.
	keep := base.order[:0]
	for _, k := range base.order {
		if d.chMark[uint32(k)] != d.epoch {
			keep = append(keep, k)
		}
	}
	base.order = keep
	for _, ci := range changed {
		if e.weight[ci] <= 0 {
			continue
		}
		k := uint64(math.Float32bits(float32(e.tDemand[ci])))<<32 | uint64(uint32(ci))
		if at, dup := slices.BinarySearch(base.order, k); !dup {
			base.order = slices.Insert(base.order, at, k)
		}
	}
	base.indexOrder()

	// Per-bundle state. Rates and satisfaction come wholesale from the
	// result (it holds full arrays, spliced plus re-solved); freeze modes
	// are only valid in the arena for the affected set; fill parameters
	// only changed for the changed bundles themselves.
	base.bundles = append(base.bundles[:0], bundles...)
	base.rate = append(base.rate[:0], res.BundleRate...)
	base.sat = append(base.sat[:0], res.BundleSatisfied...)
	for _, i := range d.affected {
		base.byDemand[i] = e.byDemand[i]
	}
	for _, ci := range changed {
		base.weight[ci] = e.weight[ci]
		base.demand[ci] = e.demand[ci]
		base.tDemand[ci] = e.tDemand[ci]
	}

	// Per-link and per-aggregate state.
	base.linkLoad = append(base.linkLoad[:0], res.LinkLoad...)
	base.linkDem = append(base.linkDem[:0], res.LinkDemand...)
	base.isCong = append(base.isCong[:0], res.IsCongested...)
	base.aggUtil = append(base.aggUtil[:0], res.AggUtility...)
	for _, a := range d.dirtyAggs {
		base.aggTerm[a] = m.networkTerm(int(a), res.AggUtility[a])
	}
	base.foldTerms()
	base.netUtility = res.NetworkUtility

	// Crosser lists: sub-problem links were rebuilt complete by the fill
	// (the closure property guarantees every active crosser is affected);
	// touched-seed links may have gained or lost changed crossers and get
	// the same ascending merge resumTouched used; plain touched links
	// have no changed crossers, so their lists stand. Bindings follow the
	// new loads on every link whose load could have moved.
	for _, l := range d.subLinks {
		base.linkBun[l] = append(base.linkBun[l][:0], e.linkBun[l]...)
		base.binding[l] = res.IsCongested[l] || res.LinkLoad[l] >= m.capacity[l]*bindingEagerFrac
	}
	for _, l := range d.touched {
		if d.linkMark[l] == d.epoch {
			continue // promoted into the sub-problem: handled above
		}
		base.binding[l] = res.IsCongested[l] || res.LinkLoad[l] >= m.capacity[l]*bindingEagerFrac
	}
	for _, l := range d.tchSeed {
		if d.linkMark[l] == d.epoch {
			continue // promoted into the sub-problem: handled above
		}
		e.mergeChangedCrossers(base, bundles, l, changed)
		base.binding[l] = res.IsCongested[l] || res.LinkLoad[l] >= m.capacity[l]*bindingEagerFrac
	}
	// aggBun is index → aggregate membership, which changed bundles keep
	// by the EvaluateDelta contract: nothing to update.
}

// mergeChangedCrossers rewrites base.linkBun[l] as the base's active
// crossers minus the changed bundles, merged (ascending) with the changed
// bundles that actively cross l in the new list — the membership a fresh
// capture of the new list would record for a link no unchanged bundle
// moved on or off.
func (e *Eval) mergeChangedCrossers(base *Base, bundles []Bundle, l int32, changed []int) {
	d := &e.delta
	ch := e.changedCrossers(bundles, l, changed)
	buf := d.lbScratch[:0]
	k := 0
	for _, bi := range base.linkBun[l] {
		if d.chMark[bi] == d.epoch {
			continue // old membership of a changed bundle: re-merged below
		}
		for k < len(ch) && ch[k] < bi {
			buf = append(buf, ch[k])
			k++
		}
		buf = append(buf, bi)
	}
	for ; k < len(ch); k++ {
		buf = append(buf, ch[k])
	}
	d.lbScratch = buf
	base.linkBun[l] = append(base.linkBun[l][:0], buf...)
}

// RemapBase translates src — a capture of some bundle list — into dst, a
// capture of bundles: a re-layout of the same allocation that holds the
// same active bundles in the same relative order and differs only in
// which inert zero-flow placeholder entries are present. oldIdx[j] names
// the src index holding new entry j, or -1 for a fresh placeholder;
// src entries left unmapped must themselves be inert. No evaluation
// runs — values move between indices. Returns false (dst undefined)
// when the mapping breaks any of those rules; the caller should fall
// back to EvaluateBase. src and dst must be distinct.
func (e *Eval) RemapBase(src, dst *Base, bundles []Bundle, oldIdx []int) bool {
	nNew, nOld := len(bundles), len(src.bundles)
	if len(oldIdx) != nNew || src == dst {
		return false
	}
	e.remapInv = resize(e.remapInv, nOld)
	inv := e.remapInv
	for k := range inv {
		inv[k] = -1
	}
	last := -1
	for j, oi := range oldIdx {
		if oi < 0 {
			// Fresh placeholder: must be inert (zero flows ⇒ zero demand).
			if bundles[j].Flows > 0 {
				return false
			}
			continue
		}
		if oi >= nOld || oi <= last {
			return false // out of range or non-monotonic mapping
		}
		last = oi
		ob := &src.bundles[oi]
		if ob.Agg != bundles[j].Agg || ob.Flows != bundles[j].Flows || len(ob.Edges) != len(bundles[j].Edges) {
			return false
		}
		inv[oi] = int32(j)
	}
	// Dropped src entries must be inert: no rate, no weight (self-pairs
	// carry rate at zero weight, so both are checked).
	for k := 0; k < nOld; k++ {
		if inv[k] < 0 && (src.weight[k] != 0 || src.rate[k] != 0) {
			return false
		}
	}

	// Per-bundle arrays, placeholder defaults matching setupBundle's
	// inert case (rate 0, satisfied, demand-frozen, zero weight).
	dst.bundles = append(dst.bundles[:0], bundles...)
	dst.rate = resize(dst.rate, nNew)
	dst.sat = resize(dst.sat, nNew)
	dst.byDemand = resize(dst.byDemand, nNew)
	dst.weight = resize(dst.weight, nNew)
	dst.demand = resize(dst.demand, nNew)
	dst.tDemand = resize(dst.tDemand, nNew)
	for j, oi := range oldIdx {
		if oi < 0 {
			dst.rate[j] = 0
			dst.sat[j] = true
			dst.byDemand[j] = true
			dst.weight[j] = 0
			dst.demand[j] = 0
			dst.tDemand[j] = 0
			continue
		}
		dst.rate[j] = src.rate[oi]
		dst.sat[j] = src.sat[oi]
		dst.byDemand[j] = src.byDemand[oi]
		dst.weight[j] = src.weight[oi]
		dst.demand[j] = src.demand[oi]
		dst.tDemand[j] = src.tDemand[oi]
	}

	// Demand-event order: keys carry the bundle index in their low bits;
	// rewriting indices under a monotonic map keeps the list sorted.
	dst.order = dst.order[:0]
	for _, k := range src.order {
		j := inv[uint32(k)]
		if j < 0 {
			return false // an ordered (hence active) entry was dropped
		}
		dst.order = append(dst.order, k&^uint64(math.MaxUint32)|uint64(uint32(j)))
	}
	dst.indexOrder()

	// Per-link state: loads, demands, congestion and bindings are
	// layout-independent; crosser lists (active bundles only, index
	// order) remap monotonically.
	dst.linkLoad = append(dst.linkLoad[:0], src.linkLoad...)
	dst.linkDem = append(dst.linkDem[:0], src.linkDem...)
	dst.isCong = append(dst.isCong[:0], src.isCong...)
	dst.binding = append(dst.binding[:0], src.binding...)
	dst.aggUtil = append(dst.aggUtil[:0], src.aggUtil...)
	dst.aggTerm = append(dst.aggTerm[:0], src.aggTerm...)
	dst.total, dst.absTotal = src.total, src.absTotal
	dst.netUtility = src.netUtility
	nL := len(src.linkBun)
	if cap(dst.linkBun) < nL {
		dst.linkBun = make([][]int32, nL)
	}
	dst.linkBun = dst.linkBun[:nL]
	for l := 0; l < nL; l++ {
		lb := dst.linkBun[l][:0]
		for _, bi := range src.linkBun[l] {
			j := inv[bi]
			if j < 0 {
				return false // an active crosser was dropped
			}
			lb = append(lb, j)
		}
		dst.linkBun[l] = lb
	}

	nA := e.m.mat.NumAggregates()
	if cap(dst.aggBun) < nA {
		dst.aggBun = make([][]int32, nA)
	}
	dst.aggBun = dst.aggBun[:nA]
	for a := range dst.aggBun {
		dst.aggBun[a] = dst.aggBun[a][:0]
	}
	for i, b := range bundles {
		dst.aggBun[b.Agg] = append(dst.aggBun[b.Agg], int32(i))
	}
	return true
}

// indexOrder rebuilds orderPos, the inverse of order, for the captured
// list: every writer of order calls it, once per capture, commit or
// remap — O(bundles), never per candidate.
func (b *Base) indexOrder() {
	b.orderPos = resize(b.orderPos, len(b.bundles))
	for i := range b.orderPos {
		b.orderPos[i] = -1
	}
	for rank, k := range b.order {
		b.orderPos[uint32(k)] = int32(rank)
	}
}

// NetworkUtility returns the captured network utility of the base's
// bundle list.
func (b *Base) NetworkUtility() float64 { return b.netUtility }

// ResultFromBase materializes the Result a full Evaluate of the base's
// bundle list would return, from the capture alone — no water-filling
// runs. Per-bundle, per-link and per-aggregate arrays copy out of the
// base (which CommitDelta/RemapBase keep bit-identical to a fresh
// EvaluateBase of the same list); the congested list and the two §3
// utilization metrics are derived exactly the way Evaluate derives them.
// The Result is the arena's, valid until its next evaluation. This is
// what lets a run that kept its base live skip the final full
// evaluation entirely.
func (e *Eval) ResultFromBase(base *Base) *Result {
	nB := len(base.bundles)
	e.grow(nB)
	res := &e.res
	res.BundleRate = append(res.BundleRate[:0], base.rate...)
	res.BundleSatisfied = append(res.BundleSatisfied[:0], base.sat...)
	copy(res.LinkLoad, base.linkLoad)
	copy(res.LinkDemand, base.linkDem)
	copy(res.IsCongested, base.isCong)
	copy(res.AggUtility, base.aggUtil)
	res.NetworkUtility = base.netUtility
	e.rebuildCongested(res)
	e.computeUtilization(res)
	return res
}

// growCap is the capacity a scratch array gets when it must hold n
// entries: a quarter over, so a bundle list that gains a few placeholders a
// step re-allocates every few dozen steps, not every one.
func growCap(n int) int { return n + n/4 }

// resize returns s with length n, re-allocating (contents dropped) only
// when its capacity falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, growCap(n))
	}
	return s[:n]
}
