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
//   - RemapBase inserts inert zero-flow placeholders into the Base's
//     list in place. An optimizer's list holds one entry per path-set
//     entry, and path sets only grow, so this is the only layout change
//     it makes: the capture carries over index-shifted, again without a
//     fresh evaluation.
//
// Both operations produce a Base bit-identical to what EvaluateBase
// would capture for the same list: CommitDelta's patch writes exactly
// the values the delta fill proved equal to a full evaluation, and
// RemapBase only moves values between indices. RemapBase verifies the
// map is an insertion of placeholders before it writes anything; a
// false return directs the caller to a full recapture.
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
	res, fellBack := e.evaluateDelta(e.Closure(base), bundles, changed, false, math.Inf(-1))
	if fellBack {
		e.captureState(bundles, res, base)
		return res, false
	}
	e.patchBase(base, bundles, changed, res)
	return res, true
}

// patchBase folds a just-completed (non-fallback) evaluateDelta outcome
// into base. The delta scratch (affected set, sub-problem and touched
// link lists, changed marks) must still describe that call. The result
// differs from the base only where the delta wrote — the affected
// bundles, the sub-problem, touched and touched-seed links, the dirty
// aggregates — so that is all it writes back: the cost is the delta's,
// plus the index-order passes of indexOrder and foldTerms.
func (e *Eval) patchBase(base *Base, bundles []Bundle, changed []int, res *Result) {
	d := &e.delta
	m := e.m

	// Demand-event order first (it reads the base's old fill parameters):
	// drop the changed bundles' old keys, highest rank first so the lower
	// ranks orderPos holds stay valid, then re-insert the ones still active
	// under their new demand times. Unchanged affected bundles spliced
	// their base fill parameters, so their keys are already correct.
	for {
		top := int32(-1)
		for _, ci := range changed {
			top = max(top, base.orderPos[ci])
		}
		if top < 0 {
			break
		}
		base.orderPos[uint32(base.order[top])] = -1
		base.order = slices.Delete(base.order, int(top), int(top)+1)
	}
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

	// Per-bundle state. Only the changed bundles differ from the base's
	// list, and only they computed fill parameters of their own; rates,
	// satisfaction and freeze modes were re-solved for the affected set.
	for _, ci := range changed {
		base.bundles[ci] = bundles[ci]
		base.weight[ci] = e.weight[ci]
		base.demand[ci] = e.demand[ci]
		base.tDemand[ci] = e.tDemand[ci]
	}
	for _, i := range d.affected {
		base.rate[i], base.sat[i], base.byDemand[i] = res.BundleRate[i], res.BundleSatisfied[i], e.byDemand[i]
	}

	// Per-aggregate state: only the dirty aggregates were re-derived.
	for _, a := range d.dirtyAggs {
		base.aggUtil[a] = res.AggUtility[a]
		base.aggTerm[a] = m.networkTerm(int(a), res.AggUtility[a])
	}
	base.foldTerms()
	base.netUtility = res.NetworkUtility

	// Per-link state: loads, demands and congestion moved only on the
	// sub-problem's links and the touched and touched-seed ones the delta
	// re-summed. Crosser lists: sub-problem links were rebuilt complete by
	// the fill (the closure property guarantees every active crosser is
	// affected); touched-seed links may have gained or lost changed
	// crossers and get the same ascending merge resumTouched used; plain
	// touched links have no changed crossers, so their lists stand.
	// Bindings follow the new loads.
	setLink := func(l int32) {
		base.linkLoad[l], base.linkDem[l], base.isCong[l] = res.LinkLoad[l], res.LinkDemand[l], res.IsCongested[l]
		base.binding[l] = res.IsCongested[l] || res.LinkLoad[l] >= m.capacity[l]*bindingEagerFrac
	}
	for _, l := range d.subLinks {
		base.linkBun[l] = append(base.linkBun[l][:0], e.linkBun[l]...)
		setLink(l)
	}
	for _, l := range d.touched {
		if d.linkMark[l] != d.epoch { // else promoted: handled above
			setLink(l)
		}
	}
	for _, l := range d.tchSeed {
		if d.linkMark[l] != d.epoch {
			e.mergeChangedCrossers(base, bundles, l, changed)
			setLink(l)
		}
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

// RemapBase re-lays base, a capture of some bundle list, out as a capture
// of bundles: the same list with inert zero-flow placeholders inserted —
// what an optimizer's path-set-dense list becomes when a path set grows.
// oldIdx[j] names the old index of new entry j, or -1 for a fresh
// placeholder. No evaluation runs: per-bundle values move up to their new
// indices in place, and crosser lists and demand-event keys are
// re-indexed, which keeps them sorted. Returns false with base untouched
// when the map drops, reorders or duplicates an old entry, pairs entries
// that differ, or gives a fresh entry flows; the caller should then
// recapture with EvaluateBase.
func (e *Eval) RemapBase(base *Base, bundles []Bundle, oldIdx []int) bool {
	nNew, nOld := len(bundles), len(base.bundles)
	if len(oldIdx) != nNew {
		return false
	}
	e.remapInv = resize(e.remapInv, nOld)
	inv := e.remapInv
	next := 0 // every old index appears, once and in order
	for j, oi := range oldIdx {
		if oi < 0 {
			if bundles[j].Flows != 0 {
				return false
			}
			continue
		}
		if oi != next || oi >= nOld {
			return false
		}
		if ob := &base.bundles[oi]; ob.Agg != bundles[j].Agg || ob.Flows != bundles[j].Flows || len(ob.Edges) != len(bundles[j].Edges) {
			return false
		}
		inv[oi] = int32(j)
		next++
	}
	if next != nOld {
		return false
	}

	// Per-bundle arrays grow in place, filled back to front: every old index
	// is at or below its new one, so each value is read before its slot is
	// written. Placeholders take setupParams' inert values.
	base.rate, base.sat, base.byDemand = extend(base.rate, nNew), extend(base.sat, nNew), extend(base.byDemand, nNew)
	base.weight, base.demand, base.tDemand = extend(base.weight, nNew), extend(base.demand, nNew), extend(base.tDemand, nNew)
	for j := nNew - 1; j >= 0; j-- {
		if oi := oldIdx[j]; oi >= 0 {
			base.rate[j], base.sat[j], base.byDemand[j] = base.rate[oi], base.sat[oi], base.byDemand[oi]
			base.weight[j], base.demand[j], base.tDemand[j] = base.weight[oi], base.demand[oi], base.tDemand[oi]
		} else {
			base.rate[j], base.sat[j], base.byDemand[j] = 0, true, true
			base.weight[j], base.demand[j], base.tDemand[j] = 0, 0, 0
		}
	}
	base.bundles = refill(base.bundles, bundles)
	for i, k := range base.order {
		base.order[i] = k&^uint64(math.MaxUint32) | uint64(uint32(inv[uint32(k)]))
	}
	base.indexOrder()
	for _, lb := range base.linkBun {
		for i, bi := range lb {
			lb[i] = inv[bi]
		}
	}
	base.indexAggs(e.m.mat.NumAggregates())
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

// GrowCap is the capacity a per-bundle array gets when it must hold n
// entries: half again as many. An optimizer's list starts at one entry an
// aggregate and gains a placeholder for every path collection appends — a
// third more by the end of a cold scale-s run (1,500 → up to 2,001) — so
// that the arrays sized for its first build hold it to the end, and one
// that must still grow re-allocates every few dozen steps, not every one.
// The list itself takes the same, so that it and a Base capturing it
// re-allocate together.
func GrowCap(n int) int { return n + n/2 }

// extend returns s with length n ≥ len(s), its contents kept.
func extend[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(make([]T, 0, GrowCap(n)), s...)
	}
	return s[:n]
}

// refill returns dst holding a copy of src, re-allocated with GrowCap's
// headroom when its capacity falls short.
func refill[T any](dst, src []T) []T {
	clear(dst[min(len(src), len(dst)):]) // a shorter list keeps no dropped path alive
	dst = resize(dst, len(src))
	copy(dst, src)
	return dst
}

// resize returns s with length n, re-allocating (contents dropped) only
// when its capacity falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, GrowCap(n))
	}
	return s[:n]
}
