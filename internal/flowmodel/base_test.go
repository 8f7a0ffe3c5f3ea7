package flowmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// requireBase asserts the whole capture contract on a Base that claims to
// capture list: its derived arrays (orderPos, aggTerm) equal a
// recomputation from the arrays they index, and every field equals what a
// fresh EvaluateBase of the list captures, bit for bit.
func requireBase(t *testing.T, tag string, m *Model, got *Base, list []Bundle) {
	t.Helper()
	if len(got.orderPos) != len(list) {
		t.Fatalf("%s: orderPos has %d entries for %d bundles", tag, len(got.orderPos), len(list))
	}
	ranked := 0
	for _, r := range got.orderPos {
		if r >= 0 {
			ranked++
		}
	}
	if ranked != len(got.order) {
		t.Fatalf("%s: %d bundles hold a rank, order has %d events", tag, ranked, len(got.order))
	}
	for rank, k := range got.order {
		if got.orderPos[uint32(k)] != int32(rank) {
			t.Fatalf("%s: orderPos[%d] = %d, want rank %d", tag, uint32(k), got.orderPos[uint32(k)], rank)
		}
	}
	if len(got.aggTerm) != len(got.aggUtil) {
		t.Fatalf("%s: %d aggTerm entries for %d aggregates", tag, len(got.aggTerm), len(got.aggUtil))
	}
	for a, u := range got.aggUtil {
		if math.Float64bits(got.aggTerm[a]) != math.Float64bits(m.networkTerm(a, u)) {
			t.Fatalf("%s: aggTerm[%d] = %v, want %v", tag, a, got.aggTerm[a], m.networkTerm(a, u))
		}
	}

	var want Base
	m.NewEval().EvaluateBase(list, &want)
	same := func(field string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: %s differs from a fresh capture", tag, field)
		}
	}
	same("bundles", slices.EqualFunc(got.bundles, want.bundles, func(a, b Bundle) bool {
		return a.Agg == b.Agg && a.Flows == b.Flows && a.Delay == b.Delay && slices.Equal(a.Edges, b.Edges)
	}))
	same("rate", slices.Equal(got.rate, want.rate))
	same("sat", slices.Equal(got.sat, want.sat))
	same("byDemand", slices.Equal(got.byDemand, want.byDemand))
	same("weight", slices.Equal(got.weight, want.weight))
	same("demand", slices.Equal(got.demand, want.demand))
	same("tDemand", slices.Equal(got.tDemand, want.tDemand))
	same("order", slices.Equal(got.order, want.order))
	same("orderPos", slices.Equal(got.orderPos, want.orderPos))
	same("linkBun", slices.EqualFunc(got.linkBun, want.linkBun, slices.Equal[[]int32]))
	same("aggBun", slices.Equal(got.aggBun, want.aggBun) && slices.Equal(got.aggOff, want.aggOff))
	same("linkLoad", slices.Equal(got.linkLoad, want.linkLoad))
	same("linkDem", slices.Equal(got.linkDem, want.linkDem))
	same("isCong", slices.Equal(got.isCong, want.isCong))
	same("binding", slices.Equal(got.binding, want.binding))
	same("aggUtil", slices.Equal(got.aggUtil, want.aggUtil))
	same("aggTerm", slices.Equal(got.aggTerm, want.aggTerm))
	same("total", got.total == want.total)
	same("absTotal", got.absTotal == want.absTotal)
	same("netUtility", got.netUtility == want.netUtility)
}

// growSets inserts placeholders the way an optimizer's list grows when
// collection appends a path to a set: inert zero-flow entries at the end
// of some aggregates' segments, every existing entry kept in order.
// Returns the new list and, per new entry, the old index it came from (-1:
// fresh) — RemapBase's input.
func growSets(rng *rand.Rand, old []Bundle) ([]Bundle, []int) {
	var list []Bundle
	var oldIdx []int
	for i, b := range old {
		list = append(list, b)
		oldIdx = append(oldIdx, i)
		if len(b.Edges) == 0 || (i+1 < len(old) && old[i+1].Agg == b.Agg) {
			continue // not the end of a routed aggregate's segment
		}
		for n := rng.Intn(6) - 3; n > 0; n-- {
			ph := b
			ph.Flows = 0
			list = append(list, ph)
			oldIdx = append(oldIdx, -1)
		}
	}
	return list, oldIdx
}

// TestBaseStaysCaptured walks one persistent Base through random
// interleavings of the three operations that write it — a fresh capture,
// a committed move folded in by CommitDelta, placeholders inserted by
// RemapBase — and after every one holds it to requireBase: the derived
// arrays the per-candidate path trusts (orderPos, aggTerm) are current,
// and the base is the capture a full evaluation of its list would produce.
// Commits move flows onto earlier insertions, so later ones shift active
// bundles.
func TestBaseStaysCaptured(t *testing.T) {
	var commits, patches, remaps int
	for seed := int64(1); seed <= 12; seed++ {
		m, list, _ := deltaInstance(t, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		arena := m.NewEval()
		base := new(Base)
		arena.EvaluateBase(list, base)
		requireBase(t, "capture", m, base, list)
		for op := 0; op < 60; op++ {
			switch rng.Intn(8) {
			case 0:
				arena.EvaluateBase(list, base)
				requireBase(t, "recapture", m, base, list)
			case 1, 2:
				next, oldIdx := growSets(rng, list)
				if !arena.RemapBase(base, next, oldIdx) {
					t.Fatalf("seed %d op %d: RemapBase refused a placeholder insertion", seed, op)
				}
				list = next
				remaps++
				requireBase(t, "remap", m, base, list)
			default:
				cand := append([]Bundle(nil), list...)
				changed := perturb(rng, cand)
				if changed == nil {
					continue
				}
				// Scoring the move first, as a step does, must leave
				// nothing behind that skews the commit.
				arena.EvaluateDeltaUtility(arena.Closure(base), cand, changed, base.NetworkUtility()+1e-6)
				_, patched := arena.CommitDelta(base, cand, changed)
				list = cand
				commits++
				if patched {
					patches++
				}
				requireBase(t, "commit", m, base, list)
			}
		}
	}
	if patches < 100 || remaps < 50 {
		t.Fatalf("walk too shallow: %d commits (%d patched in place), %d remaps", commits, patches, remaps)
	}
}

// TestRemapBaseRefuses feeds RemapBase every map that is not a placeholder
// insertion. Each must be refused before anything is written — the base
// still captures its old list — and one recapture serves again.
func TestRemapBaseRefuses(t *testing.T) {
	m, list, _ := deltaInstance(t, 3)
	pair := -1 // two adjacent entries of one aggregate
	for j := 0; j+1 < len(list); j++ {
		if list[j].Agg == list[j+1].Agg {
			pair = j
			break
		}
	}
	if pair < 0 || list[pair].Agg == list[len(list)-1].Agg {
		t.Fatal("instance has no aggregate with two paths before its last")
	}
	identity := func() ([]Bundle, []int) {
		idx := make([]int, len(list))
		for j := range idx {
			idx[j] = j
		}
		return append([]Bundle(nil), list...), idx
	}
	insert := func(b Bundle, oi int) ([]Bundle, []int) {
		l, idx := identity()
		return slices.Insert(l, pair+1, b), slices.Insert(idx, pair+1, oi)
	}
	cases := map[string]func() ([]Bundle, []int){
		"wrong length": func() ([]Bundle, []int) {
			l, idx := identity()
			return l, idx[1:]
		},
		"dropped": func() ([]Bundle, []int) {
			l, idx := identity()
			return slices.Delete(l, pair, pair+1), slices.Delete(idx, pair, pair+1)
		},
		"reordered": func() ([]Bundle, []int) {
			l, idx := identity()
			l[pair], l[pair+1] = l[pair+1], l[pair]
			idx[pair], idx[pair+1] = idx[pair+1], idx[pair]
			return l, idx
		},
		"duplicated": func() ([]Bundle, []int) { return insert(list[pair], pair) },
		"fresh with flows": func() ([]Bundle, []int) {
			b := list[pair]
			b.Flows = 1
			return insert(b, -1)
		},
		"aggregate mismatch": func() ([]Bundle, []int) {
			l, idx := identity()
			l[pair].Agg = list[len(list)-1].Agg
			return l, idx
		},
	}
	arena := m.NewEval()
	for name, build := range cases {
		base := new(Base)
		arena.EvaluateBase(list, base)
		next, oldIdx := build()
		if arena.RemapBase(base, next, oldIdx) {
			t.Fatalf("%s: RemapBase accepted the map", name)
		}
		requireBase(t, name+": refused", m, base, list)
		arena.EvaluateBase(list, base)
		requireBase(t, name+": recaptured", m, base, list)
	}
}

// A warm arena scores a candidate without allocating, folded or bounded,
// alone or extending a step closure, and a warm base arena builds the
// closure without allocating: every scratch the delta path touches — marks,
// worklists, the rank bitset, the crosser merge buffers, the load check's
// sums, the closure's chains and demand keys — is sized on first use and
// reused.
func TestEvaluateDeltaUtilityAllocatesNothing(t *testing.T) {
	m, list := heLikeInstance(t)
	arena := m.NewEval()
	var base Base
	arena.EvaluateBase(list, &base)
	moves := moveCandidates(list, 32, 3)
	cand := append([]Bundle(nil), list...)
	score := func() {
		for k, mv := range moves {
			n := 1 + cand[mv[0]].Flows/2
			cand[mv[0]].Flows -= n
			cand[mv[1]].Flows += n
			bound := math.Inf(-1)
			if k%2 == 0 {
				bound = base.NetworkUtility() + 1e-6
			}
			if _, fellBack := arena.EvaluateDeltaUtility(arena.Closure(&base), cand, mv[:], bound); fellBack {
				t.Fatal("in-contract candidate fell back to a full evaluation")
			}
			cand[mv[0]].Flows += n
			cand[mv[1]].Flows -= n
		}
	}
	score() // warm every scratch
	if avg := testing.AllocsPerRun(20, score); avg != 0 {
		t.Errorf("%.2f allocations per %d warm EvaluateDeltaUtility calls, want 0", avg, len(moves))
	}

	builder := m.NewEval()
	link, off := bestSharedLink(m, list, &base)
	if len(off) < 2 {
		t.Fatalf("link %d has %d moves, want a step with several", link, len(off))
	}
	step := func() {
		c := builder.Closure(&base, link)
		for k, mv := range off {
			changed := mv.apply(cand)
			bound := math.Inf(-1)
			if k%2 == 0 {
				bound = base.NetworkUtility() + 1e-6
			}
			if _, fellBack := arena.EvaluateDeltaUtility(c, cand, changed, bound); fellBack {
				t.Fatal("in-contract candidate fell back to a full evaluation")
			}
			mv.undo(cand)
		}
	}
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Errorf("%.2f allocations per closure build and %d warm candidates scored against it, want 0", avg, len(off))
	}
}
