package flowmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eagerHeap is the saturation-event queue as an eagerly re-keyed binary
// heap — every update sifts at once, so time[l] is always the heap key —
// kept verbatim as the reference linkQueue is checked against.
type eagerHeap struct {
	time []float64 // per-link saturation time; valid while pos[l] >= 0
	heap []int32   // heap of link indices ordered by (time, index)
	pos  []int32   // heap position per link; -1 = no pending event
}

func (h *eagerHeap) init(nL int) {
	h.time = make([]float64, nL)
	h.pos = make([]int32, nL)
	for i := range h.pos {
		h.pos[i] = -1
	}
	h.heap = h.heap[:0]
}

func (h *eagerHeap) reset() {
	for _, l := range h.heap {
		h.pos[l] = -1
	}
	h.heap = h.heap[:0]
}

func (h *eagerHeap) less(a, b int32) bool {
	ta, tb := h.time[a], h.time[b]
	if ta != tb {
		return ta < tb
	}
	return a < b
}

func (h *eagerHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *eagerHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *eagerHeap) down(i int) bool {
	start := i
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.heap[r], h.heap[c]) {
			c = r
		}
		if !h.less(h.heap[c], h.heap[i]) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > start
}

func (h *eagerHeap) update(l int32, t float64) {
	if math.IsInf(t, 1) {
		h.remove(l)
		return
	}
	h.time[l] = t
	p := h.pos[l]
	if p < 0 {
		h.pos[l] = int32(len(h.heap))
		h.heap = append(h.heap, l)
		h.up(len(h.heap) - 1)
		return
	}
	if !h.down(int(p)) {
		h.up(int(p))
	}
}

func (h *eagerHeap) remove(l int32) {
	p := int(h.pos[l])
	if p < 0 {
		return
	}
	n := len(h.heap) - 1
	if p != n {
		h.swap(p, n)
	}
	h.heap = h.heap[:n]
	h.pos[l] = -1
	if p < n {
		if !h.down(p) {
			h.up(p)
		}
	}
}

func (h *eagerHeap) peek() (int32, float64) {
	if len(h.heap) == 0 {
		return -1, math.Inf(1)
	}
	l := h.heap[0]
	return l, h.time[l]
}

// TestLinkQueueMatchesEagerReference drives linkQueue and the eager
// reference with the same random update/remove/peek/reset streams and
// requires the same (link, time) at every peek: the queue may hold a stale
// minimum, but what it reports is what an eagerly re-keyed heap reports.
// The streams cover what a fill produces and what it does not — times that
// rise (the common case, staling the minimum when it is the one that
// rose), fall and stay, equal times on different links, +Inf (a removal),
// re-insertion after a removal, and a pop-like removal of whatever peek
// just returned.
func TestLinkQueueMatchesEagerReference(t *testing.T) {
	var rescans, peeks int64
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nL := 1 + rng.Intn(48)
		var got linkQueue
		var want eagerHeap
		got.init(nL)
		got.start()
		want.init(nL)
		times := make([]float64, nL) // last time given per link, for relative moves
		check := func(op int) {
			t.Helper()
			gl, gt := got.peek()
			wl, wt := want.peek()
			if gl != wl || gt != wt {
				t.Fatalf("seed %d op %d: peek (%d, %v), eager reference (%d, %v)", seed, op, gl, gt, wl, wt)
			}
			peeks++
		}
		for op := 0; op < 4000; op++ {
			l := int32(rng.Intn(nL))
			switch r := rng.Intn(100); {
			case r < 45: // rise, as a freeze moves a saturation later
				times[l] += rng.Float64()
			case r < 55: // fall
				times[l] -= rng.Float64()
			case r < 65: // land exactly on another link's time
				times[l] = times[rng.Intn(nL)]
			case r < 70: // unchanged
			case r < 74:
				got.update(l, math.Inf(1))
				want.update(l, math.Inf(1))
				continue
			case r < 80:
				got.remove(l)
				want.remove(l)
				continue
			case r < 92: // pop: retire whatever is earliest
				check(op)
				if top, _ := want.peek(); top >= 0 {
					got.remove(top)
					want.remove(top)
				}
				continue
			case r < 99:
				check(op)
				continue
			default:
				got.reset()
				got.start()
				want.reset()
				check(op)
				continue
			}
			got.update(l, times[l])
			want.update(l, times[l])
			if rng.Intn(3) == 0 {
				check(op)
			}
		}
		// Drain: the full pop order, ties included.
		for {
			check(-1)
			top, _ := want.peek()
			if top < 0 {
				break
			}
			got.remove(top)
			want.remove(top)
		}
		if len(got.pending) != 0 {
			t.Fatalf("seed %d: %d events left after the reference drained", seed, len(got.pending))
		}
		rescans += got.rescans
	}
	t.Logf("%d rescans over %d peeks", rescans, peeks)
	if peeks < 10000 || rescans == 0 {
		t.Fatalf("streams exercised %d rescans over %d peeks", rescans, peeks)
	}
}

// eagerFill is the water-filling of Eval.Evaluate written out plainly on
// the eager reference heap — fresh arrays, every link, no sub-problem, no
// arena — returning each bundle's rate and satisfaction and each link's
// congestion flag.
func eagerFill(m *Model, bundles []Bundle) (rate []float64, sat, cong []bool) {
	nB, nL := len(bundles), m.topo.NumLinks()
	rate, sat, cong = make([]float64, nB), make([]bool, nB), make([]bool, nL)
	weight, demand, tDemand := make([]float64, nB), make([]float64, nB), make([]float64, nB)
	frozen := make([]bool, nB)
	linkW, linkFrozen := make([]float64, nL), make([]float64, nL)
	crossers := make([][]int32, nL)
	var order []uint64
	active := 0
	for i, b := range bundles {
		d := m.demandPer[b.Agg] * float64(b.Flows)
		demand[i] = d
		if len(b.Edges) == 0 || b.Flows <= 0 || d == 0 {
			rate[i], sat[i], frozen[i] = d, true, true
			continue
		}
		weight[i] = float64(b.Flows) / b.RTT()
		tDemand[i] = d / weight[i]
		for _, eid := range b.Edges {
			linkW[eid] += weight[i]
			crossers[eid] = append(crossers[eid], int32(i))
		}
		order = append(order, uint64(math.Float32bits(float32(tDemand[i])))<<32|uint64(uint32(i)))
		active++
	}
	slices.Sort(order)
	var events eagerHeap
	events.init(nL)
	for l := range linkW {
		if linkW[l] > 0 {
			events.update(int32(l), (m.capacity[l]-linkFrozen[l])/linkW[l])
		}
	}
	freeze := func(i int, r float64, satisfied bool) {
		frozen[i], rate[i], sat[i] = true, r, satisfied
		for _, eid := range bundles[i].Edges {
			linkW[eid] -= weight[i]
			if linkW[eid] < 0 {
				linkW[eid] = 0
			}
			linkFrozen[eid] += r
			if linkW[eid] > 0 {
				events.update(int32(eid), (m.capacity[eid]-linkFrozen[eid])/linkW[eid])
			} else {
				events.remove(int32(eid))
			}
		}
		active--
	}
	next := 0
	for active > 0 {
		for next < len(order) && frozen[uint32(order[next])] {
			next++
		}
		tDem := math.Inf(1)
		if next < len(order) {
			tDem = tDemand[uint32(order[next])]
		}
		link, tLink := events.peek()
		switch {
		case tDem <= tLink:
			i := int(uint32(order[next]))
			next++
			freeze(i, demand[i], true)
		case link >= 0:
			t := max(tLink, 0)
			froze := 0
			for _, bi := range crossers[link] {
				if frozen[bi] {
					continue
				}
				r := weight[bi] * t
				satisfied := r >= demand[bi]*(1-1e-9)
				if satisfied {
					r = demand[bi]
				} else {
					cong[link] = true
				}
				freeze(int(bi), r, satisfied)
				froze++
			}
			if froze == 0 { // residual float weight: retire the event
				linkW[link] = 0
				events.remove(link)
			}
		default:
			panic("eagerFill: stalled filling")
		}
	}
	return rate, sat, cong
}

// TestFillMatchesEagerReference runs whole fills on HE-31, HE-31 in a
// crisis, the 6-node tenant ring and scale-m: the arena's full fill of a
// list and its sub-fills of candidate moves must give every bundle the
// rate, and every link the congestion flag, that the plain fill on the
// eager reference heap gives the same list. Rates are a function of the
// order saturation events pop in, so equality bit for bit is the pop
// orders agreeing. Full fills and sub-fills must each have rescanned a
// stale minimum, or the test exercised the cached minimum only.
func TestFillMatchesEagerReference(t *testing.T) {
	instances := []struct {
		name  string
		build func(testing.TB) (*Model, []Bundle)
	}{{"he", heLikeInstance}, {"he-crisis", heCrisisInstance}, {"ring", ringTenantInstance},
		{"scale-m", func(tb testing.TB) (*Model, []Bundle) { return presetInstance(tb, "scale-m", 3) }}}
	for _, inst := range instances {
		m, bundles := inst.build(t)
		var fills [2]int // full fills, sub-fills
		requireFill := func(tag string, sub int, list []Bundle, res *Result) {
			t.Helper()
			fills[sub]++
			rate, sat, cong := eagerFill(m, list)
			for i := range list {
				if res.BundleRate[i] != rate[i] || res.BundleSatisfied[i] != sat[i] {
					t.Fatalf("%s %s: bundle %d froze at (%v, %v), eager reference (%v, %v)",
						inst.name, tag, i, res.BundleRate[i], res.BundleSatisfied[i], rate[i], sat[i])
				}
			}
			for l := range cong {
				if res.IsCongested[l] != cong[l] {
					t.Fatalf("%s %s: link %d congested %v, eager reference %v", inst.name, tag, l, res.IsCongested[l], cong[l])
				}
			}
		}
		full, sub := m.NewEval(), m.NewEval()
		var base Base
		requireFill("full fill", 0, bundles, full.EvaluateBase(bundles, &base))
		cand := append([]Bundle(nil), bundles...)
		moves := 64
		if inst.name == "scale-m" {
			moves = 8 // every full fill of a candidate costs a scale-m fill twice
		}
		for k, mv := range moveCandidates(bundles, moves, 11) {
			if cand[mv[0]].Flows == 0 {
				continue // emptied by a kept move
			}
			n := 1 + cand[mv[0]].Flows/2
			cand[mv[0]].Flows -= n
			cand[mv[1]].Flows += n
			changed := []int{min(mv[0], mv[1]), max(mv[0], mv[1])}
			requireFill("full fill of a candidate", 0, cand, full.Evaluate(cand))
			requireFill("sub-fill", 1, cand, sub.EvaluateDelta(sub.Closure(&base), cand, changed))
			if k%4 == 0 { // keep the move: later sub-fills run against a patched base
				res, _ := sub.CommitDelta(&base, cand, changed)
				requireFill("committed sub-fill", 1, cand, res)
				continue
			}
			cand[mv[0]].Flows += n
			cand[mv[1]].Flows -= n
		}
		for i, q := range []struct {
			tag string
			q   *linkQueue
		}{{"full fills", &full.events}, {"sub-fills", &sub.events}} {
			t.Logf("%s %s: %d fills, %d rescans", inst.name, q.tag, fills[i], q.q.rescans)
			if q.q.rescans == 0 {
				t.Errorf("%s %s: no fill rescanned a stale minimum", inst.name, q.tag)
			}
		}
	}
}
