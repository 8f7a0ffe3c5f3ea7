package flowmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// deltaInstance draws a seeded random congested instance plus a dense
// bundle list: every aggregate's flows split over up to three candidate
// paths, zero-flow entries included so perturbations can grow them — the
// same list shape the optimizer's trial-move engine evaluates.
func deltaInstance(tb testing.TB, seed int64) (*Model, []Bundle, [][]graph.Path) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := topology.Ring(5+rng.Intn(6), 2+rng.Intn(4),
		unit.Bandwidth(300+rng.Intn(1500))*unit.Kbps, seed)
	if err != nil {
		tb.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{1, 10}
	cfg.BulkFlows = [2]int{1, 6}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	m, err := New(topo, mat)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	bundles, paths := denseList(tb, rng, m)
	return m, bundles, paths
}

// denseList draws deltaInstance's bundle list for a model.
func denseList(tb testing.TB, rng *rand.Rand, m *Model) ([]Bundle, [][]graph.Path) {
	tb.Helper()
	topo, mat := m.Topology(), m.Matrix()
	gen, err := pathgen.New(topo, pathgen.Policy{})
	if err != nil {
		tb.Fatalf("pathgen.New: %v", err)
	}
	var bundles []Bundle
	var paths [][]graph.Path
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			paths = append(paths, nil)
			continue
		}
		ps := gen.KLowestDelay(a.Src, a.Dst, 1+rng.Intn(3))
		if len(ps) == 0 {
			tb.Fatalf("no path for aggregate %d", a.ID)
		}
		left := a.Flows
		for pi, p := range ps {
			n := 0
			if pi == len(ps)-1 {
				n = left
			} else if left > 0 {
				n = rng.Intn(left + 1)
			}
			bundles = append(bundles, NewBundle(topo, a.ID, n, p))
			paths = append(paths, ps)
			left -= n
		}
	}
	return bundles, paths
}

// perturb applies a random optimizer-shaped move to the list: shift some
// flows between two same-aggregate entries (one may hit zero, one may
// start from zero). Returns the changed indices, or nil when the draw
// found no movable pair.
func perturb(rng *rand.Rand, bundles []Bundle) []int {
	// Group indices by aggregate, in deterministic aggregate order.
	maxAgg := traffic.AggregateID(-1)
	for _, b := range bundles {
		if b.Agg > maxAgg {
			maxAgg = b.Agg
		}
	}
	byAgg := make([][]int, maxAgg+1)
	for i, b := range bundles {
		if len(b.Edges) > 0 {
			byAgg[b.Agg] = append(byAgg[b.Agg], i)
		}
	}
	var multi [][]int
	for _, idx := range byAgg {
		if len(idx) > 1 {
			multi = append(multi, idx)
		}
	}
	if len(multi) == 0 {
		return nil
	}
	for tries := 0; tries < 20; tries++ {
		seg := multi[rng.Intn(len(multi))]
		from := seg[rng.Intn(len(seg))]
		to := seg[rng.Intn(len(seg))]
		if from == to || bundles[from].Flows == 0 {
			continue
		}
		n := 1 + rng.Intn(bundles[from].Flows)
		bundles[from].Flows -= n
		bundles[to].Flows += n
		if from > to {
			from, to = to, from
		}
		return []int{from, to}
	}
	return nil
}

// requireIdentical fails the test unless got is want bit for bit
// (Result.Diff).
func requireIdentical(t *testing.T, tag string, want, got *Result) {
	t.Helper()
	if err := got.Diff(want); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// TestResultDiffNamesTheField plants one difference in each field of a
// cloned evaluation and expects Diff to name that field, and the index in
// a slice; a clone itself, an empty slice against nil included, differs
// nowhere.
func TestResultDiffNamesTheField(t *testing.T) {
	topo, mat, bundles := randomInstance(t, 3)
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	want := m.NewEval().Evaluate(bundles).Clone()
	if err := want.Clone().Diff(want); err != nil {
		t.Fatalf("a clone differs: %v", err)
	}
	empty, none := want.Clone(), want.Clone()
	empty.Congested, none.Congested = []graph.EdgeID{}, nil
	if err := empty.Diff(none); err != nil {
		t.Fatalf("an empty slice differs from nil: %v", err)
	}
	for _, c := range []struct {
		plant func(*Result)
		names string
	}{
		{func(r *Result) { r.BundleRate[1]++ }, "BundleRate[1]"},
		{func(r *Result) { r.BundleSatisfied[2] = !r.BundleSatisfied[2] }, "BundleSatisfied[2]"},
		{func(r *Result) { r.LinkLoad[3]++ }, "LinkLoad[3]"},
		{func(r *Result) { r.LinkDemand[0]++ }, "LinkDemand[0]"},
		{func(r *Result) { r.Congested = append(r.Congested, 0) }, "Congested has"},
		{func(r *Result) { r.IsCongested[1] = !r.IsCongested[1] }, "IsCongested[1]"},
		{func(r *Result) { r.AggUtility[4]++ }, "AggUtility[4]"},
		{func(r *Result) { r.AggUtility = r.AggUtility[:1] }, "AggUtility has"},
		{func(r *Result) { r.NetworkUtility++ }, "NetworkUtility"},
		{func(r *Result) { r.ActualUtilization++ }, "ActualUtilization"},
		{func(r *Result) { r.DemandedUtilization++ }, "DemandedUtilization"},
	} {
		got := want.Clone()
		c.plant(got)
		if err := got.Diff(want); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("planted %s: Diff = %v", c.names, err)
		}
	}
}

// TestDeltaDifferential is the differential property test: across seeded
// random instances and > 1000 random candidate moves, EvaluateDelta must
// produce bit-identical results to a full Evaluate of the same list. The
// base is re-captured every few moves so deltas run against bases of
// varying staleness shapes, and the walk keeps moving (committing the
// perturbed list) so congestion patterns vary.
func TestDeltaDifferential(t *testing.T) {
	evals := 0
	for seed := int64(1); seed <= 25; seed++ {
		m, bundles, _ := deltaInstance(t, seed)
		rng := rand.New(rand.NewSource(seed * 977))
		baseArena := m.NewEval()
		deltaArena := m.NewEval()
		fullArena := m.NewEval()
		var base Base
		baseArena.EvaluateBase(bundles, &base)
		for move := 0; move < 50; move++ {
			cand := append([]Bundle(nil), bundles...)
			changed := perturb(rng, cand)
			if changed == nil {
				break
			}
			want := fullArena.Evaluate(cand)
			got := deltaArena.EvaluateDelta(deltaArena.Closure(&base), cand, changed)
			requireIdentical(t, "delta vs full", want, got)
			evals++
			// Commit every other move and periodically refresh the base.
			if move%2 == 0 {
				bundles = cand
				baseArena.EvaluateBase(bundles, &base)
			}
		}
	}
	if evals < 1000 {
		t.Fatalf("differential exercised only %d delta evaluations, want >= 1000", evals)
	}
}

// TestDeltaStackedMoves checks deltas against a stale base: several
// successive moves evaluated against one capture, with the changed set
// accumulating — the contract only requires the changed list to cover
// every index that differs from the base.
func TestDeltaStackedMoves(t *testing.T) {
	m, bundles, _ := deltaInstance(t, 11)
	rng := rand.New(rand.NewSource(4242))
	var base Base
	m.NewEval().EvaluateBase(bundles, &base)
	deltaArena := m.NewEval()
	fullArena := m.NewEval()
	cand := append([]Bundle(nil), bundles...)
	var changed []int
	for move := 0; move < 12; move++ {
		ch := perturb(rng, cand)
		if ch == nil {
			break
		}
		changed = append(changed, ch...)
		want := fullArena.Evaluate(cand)
		got := deltaArena.EvaluateDelta(deltaArena.Closure(&base), cand, changed)
		requireIdentical(t, "stacked", want, got)
	}
}

// TestDeltaFallbacks pins the fallback conditions, which are contract
// violations only — no base, length mismatch, out-of-range changed index,
// aggregate swap; how much of the list a move affects is not one (see
// TestDeltaMatchesFullWhenMostOfTheListIsAffected). All must still return
// correct (full-evaluation) results.
func TestDeltaFallbacks(t *testing.T) {
	m, bundles, _ := deltaInstance(t, 7)
	arena := m.NewEval()
	var base Base
	arena.EvaluateBase(bundles, &base)

	check := func(tag string, base *Base, list []Bundle, changed []int) {
		t.Helper()
		want := m.NewEval().Evaluate(list).Clone()
		before := arena.DeltaStats().Fallbacks
		got := arena.EvaluateDelta(arena.Closure(base), list, changed)
		if arena.DeltaStats().Fallbacks != before+1 {
			t.Fatalf("%s: expected a fallback", tag)
		}
		if got.NetworkUtility != want.NetworkUtility {
			t.Fatalf("%s: utility %v != %v", tag, got.NetworkUtility, want.NetworkUtility)
		}
	}
	check("nil base", nil, bundles, []int{0})
	check("length mismatch", &base, bundles[:len(bundles)-1], []int{0})
	check("index out of range", &base, bundles, []int{len(bundles)})
	swapped := append([]Bundle(nil), bundles...)
	swapped[0].Agg = swapped[len(swapped)-1].Agg
	res := arena.EvaluateDelta(arena.Closure(&base), swapped, []int{0})
	if res.NetworkUtility != m.NewEval().Evaluate(swapped).NetworkUtility {
		t.Fatalf("aggregate-swap fallback returned a wrong result")
	}
}

// TestDeltaMatchesFullWhenMostOfTheListIsAffected covers the calls no
// cost guard turns away any more: tenant-ring and HE-crisis lists, from
// their own load up to an overload where every link binds, scored on
// congestion-relieving and random moves. Whatever share of the list the
// closure covers and however often the solve is widened and re-run,
// EvaluateDelta, EvaluateDeltaUtility and CommitDelta must equal a full
// Evaluate bit for bit without falling back — and the test counts that
// closures past half the list (on both topologies), closures of the whole
// list, calls whose closure widened three times or more (in place or by a
// re-run) and calls that re-ran at all occurred.
func TestDeltaMatchesFullWhenMostOfTheListIsAffected(t *testing.T) {
	var overHalf [2]int // calls affecting more than half the list: ring, HE crisis
	whole, widened3, reran, calls := 0, 0, 0, 0
	for _, c := range []struct {
		name         string
		ring         bool
		load         float64
		placeholders bool
	}{
		{"ring", true, 1, true}, {"ring x2", true, 2, false}, {"ring x5", true, 5, false}, {"ring x10", true, 10, false},
		{"he-crisis x1", false, 1, true}, {"he-crisis x1.3", false, 1.3, true}, {"he-crisis x2", false, 2, false}, {"he-crisis x3", false, 3, false},
	} {
		build, topoIdx := heCrisisList, 1
		if c.ring {
			build, topoIdx = ringTenantList, 0
		}
		m, bundles := build(t, c.load, c.placeholders)
		var base Base
		capture, full, delta, score := m.NewEval(), m.NewEval(), m.NewEval(), m.NewEval()
		capture.EvaluateBase(bundles, &base)
		moves := append(relievingMoves(m, bundles, 400), moveCandidates(bundles, 64, 5)...)
		cand := append([]Bundle(nil), bundles...)
		for _, mv := range moves {
			for _, n := range []int{1 + cand[mv[0]].Flows/2, cand[mv[0]].Flows} {
				cand[mv[0]].Flows -= n
				cand[mv[1]].Flows += n
				changed := []int{min(mv[0], mv[1]), max(mv[0], mv[1])}
				want := full.Evaluate(cand)
				before, continuedBefore := delta.DeltaStats(), delta.continued
				requireIdentical(t, c.name+": delta", want, delta.EvaluateDelta(delta.Closure(&base), cand, changed))
				after := delta.DeltaStats()
				if u, fellBack := score.EvaluateDeltaUtility(score.Closure(&base), cand, changed, math.Inf(-1)); u != want.NetworkUtility || fellBack {
					t.Fatalf("%s: utility-only %v (fell back: %v), full %v", c.name, u, fellBack, want.NetworkUtility)
				}
				calls++
				affected, reruns := after.AffectedBundles-before.AffectedBundles, after.Expansions-before.Expansions
				if reruns > 0 {
					reran++
				}
				hit := false
				if 2*affected > int64(len(cand)) {
					hit = true
					overHalf[topoIdx]++
				}
				if affected == int64(len(cand)) {
					whole++
				}
				if reruns+delta.continued-continuedBefore >= 3 {
					hit = true
					widened3++
				}
				if hit {
					// Fold the move into a fresh copy of the capture: the
					// patch must leave what capturing the list afresh would.
					var folded Base
					capture.EvaluateBase(bundles, &folded)
					res, patched := capture.CommitDelta(&folded, cand, changed)
					if !patched {
						t.Fatalf("%s: CommitDelta fell back to a recapture", c.name)
					}
					requireIdentical(t, c.name+": commit", full.Evaluate(cand), res)
					requireBase(t, c.name+": commit", m, &folded, cand)
				}
				cand[mv[0]].Flows += n
				cand[mv[1]].Flows -= n
			}
		}
		for _, arena := range []*Eval{capture, delta, score} {
			if st := arena.DeltaStats(); st.Fallbacks != 0 {
				t.Fatalf("%s: %d of %d delta calls fell back", c.name, st.Fallbacks, st.Calls)
			}
		}
	}
	t.Logf("%d calls: %d (ring) + %d (HE crisis) affected more than half the list, %d all of it, %d widened three times or more, %d re-ran",
		calls, overHalf[0], overHalf[1], whole, widened3, reran)
	if overHalf[0] == 0 || overHalf[1] == 0 || whole == 0 || widened3 == 0 || reran == 0 {
		t.Fatal("a case this test exists for did not occur")
	}
}

// TestDeltaContinuesInPlace drives sub-fills on the HE-31 crisis and
// tenant-ring lists through both outcomes of a lazy hit — a link event
// reaching a bundle the closure left demand-frozen. A promotion that admits
// no sub-problem link lets the fill continue in place; one that admits some
// aborts the fill and re-runs it wider, from eager marks that in-place
// promotions earlier in the same call may already have set. The lists walk
// as an optimizer walks them — score congestion-relieving and random moves,
// commit the best — since lazy hits that widen come with a base that has
// moved away from its start. Each outcome must occur on both lists, and a
// call with both on one, and every candidate's EvaluateDelta and
// EvaluateDeltaUtility must equal a full Evaluate, and its rates,
// satisfaction and congestion flags the plain fill on the eager reference
// heap, bit for bit.
func TestDeltaContinuesInPlace(t *testing.T) {
	both := 0 // calls that continued in place and then re-ran wider
	for _, c := range []struct {
		name   string
		build  func(testing.TB) (*Model, []Bundle)
		rounds int
	}{{"he-crisis", heCrisisInstance, 60}, {"ring", ringTenantInstance, 20}} {
		m, bundles := c.build(t)
		var base Base
		full, delta, score := m.NewEval(), m.NewEval(), m.NewEval()
		delta.EvaluateBase(bundles, &base)
		cand := append([]Bundle(nil), bundles...)
		inPlace, rerunWider := 0, 0
		for round := 0; round < c.rounds; round++ {
			moves := append(relievingMoves(m, cand, 100), moveCandidates(cand, 64, int64(round))...)
			bestU, best, bestN := base.NetworkUtility(), -1, 0
			for k, mv := range moves {
				for _, n := range []int{1 + cand[mv[0]].Flows/2, cand[mv[0]].Flows} {
					if n == 0 {
						continue
					}
					cand[mv[0]].Flows -= n
					cand[mv[1]].Flows += n
					changed := []int{min(mv[0], mv[1]), max(mv[0], mv[1])}
					continued, aborted := delta.continued, delta.aborted
					got := delta.EvaluateDelta(delta.Closure(&base), cand, changed)
					continued, aborted = delta.continued-continued, delta.aborted-aborted
					requireIdentical(t, c.name+": delta", full.Evaluate(cand), got)
					if u, _ := score.EvaluateDeltaUtility(score.Closure(&base), cand, changed, math.Inf(-1)); u != got.NetworkUtility {
						t.Fatalf("%s: utility-only %v, delta %v", c.name, u, got.NetworkUtility)
					}
					if continued+aborted > 0 {
						rate, sat, cong := eagerFill(m, cand)
						for i := range cand {
							if got.BundleRate[i] != rate[i] || got.BundleSatisfied[i] != sat[i] {
								t.Fatalf("%s: bundle %d at (%v, %v), eager reference (%v, %v)",
									c.name, i, got.BundleRate[i], got.BundleSatisfied[i], rate[i], sat[i])
							}
						}
						for l := range cong {
							if got.IsCongested[l] != cong[l] {
								t.Fatalf("%s: link %d congested %v, eager reference %v", c.name, l, got.IsCongested[l], cong[l])
							}
						}
					}
					switch {
					case aborted > 0:
						rerunWider++
						if continued > 0 {
							both++
						}
					case continued > 0:
						inPlace++
					}
					if got.NetworkUtility > bestU {
						bestU, best, bestN = got.NetworkUtility, k, n
					}
					cand[mv[0]].Flows += n
					cand[mv[1]].Flows -= n
				}
			}
			if best < 0 {
				break // no move improves: the walk is over
			}
			mv := moves[best]
			cand[mv[0]].Flows -= bestN
			cand[mv[1]].Flows += bestN
			delta.CommitDelta(&base, cand, []int{min(mv[0], mv[1]), max(mv[0], mv[1])})
		}
		t.Logf("%s: %d calls continued in place, %d re-ran wider", c.name, inPlace, rerunWider)
		if inPlace == 0 || rerunWider == 0 {
			t.Errorf("%s: an outcome of a lazy hit did not occur", c.name)
		}
	}
	t.Logf("%d calls continued in place and then re-ran wider", both)
	if both == 0 {
		t.Error("no call re-ran wider after continuing in place")
	}
}

// TestDeltaBaseSharedAcrossArenas runs concurrent deltas from many arenas
// against one shared Base; under -race this is the read-only-Base
// acceptance test.
func TestDeltaBaseSharedAcrossArenas(t *testing.T) {
	m, bundles, _ := deltaInstance(t, 19)
	var base Base
	m.NewEval().EvaluateBase(bundles, &base)
	// Reference results for a handful of perturbations.
	rng := rand.New(rand.NewSource(5))
	type tc struct {
		cand    []Bundle
		changed []int
		want    *Result
	}
	var cases []tc
	ref := m.NewEval()
	for len(cases) < 6 {
		cand := append([]Bundle(nil), bundles...)
		ch := perturb(rng, cand)
		if ch == nil {
			t.Fatal("no movable pair")
		}
		cases = append(cases, tc{cand, ch, ref.Evaluate(cand).Clone()})
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			arena := m.NewEval()
			for rep := 0; rep < 25; rep++ {
				c := cases[(g+rep)%len(cases)]
				got := arena.EvaluateDelta(arena.Closure(&base), c.cand, c.changed)
				if got.NetworkUtility != c.want.NetworkUtility {
					done <- errDelta
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errDelta = errString("delta result diverged from serial reference")

type errString string

func (e errString) Error() string { return string(e) }

// scoringBounds are the bounds the scoring contract is held to for a
// candidate of exact utility u on a base of utility u0: none, one ulp
// under u, u, one ulp over, what a losing candidate is scored against in
// a step, and all of them.
func scoringBounds(u, u0 float64) [6]float64 {
	return [6]float64{math.Inf(-1), math.Nextafter(u, math.Inf(-1)), u, math.Nextafter(u, math.Inf(1)), u0 + 1e-6, math.Inf(1)}
}

// requireScore asserts EvaluateDeltaUtility's return contract, trusting
// nothing about how the score was reached: above bound it is the exact
// utility bit for bit; otherwise it lies in [exact, bound].
func requireScore(t *testing.T, tag string, got, exact, bound float64) {
	t.Helper()
	if exact > bound && math.Float64bits(got) != math.Float64bits(exact) {
		t.Fatalf("%s: exact utility %v beats the bound %v, but the score is %v", tag, exact, bound, got)
	}
	if exact <= bound && (got < exact || got > bound) {
		t.Fatalf("%s: score %v outside [%v, %v] (exact utility, bound)", tag, got, exact, bound)
	}
}

// FuzzEvaluateDelta fuzzes the differential contract: arbitrary
// (instance seed, move seed, move count) triples must keep EvaluateDelta
// bit-identical to full evaluation, and EvaluateDeltaUtility, against the
// bound scoringBounds[bound%6], to the scoring contract.
func FuzzEvaluateDelta(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(3), uint8(4))
	f.Add(int64(7), int64(99), uint8(10), uint8(1))
	f.Add(int64(23), int64(5), uint8(1), uint8(2))
	f.Add(int64(1), int64(2), uint8(15), uint8(5)) // closures past 60% of the list, one widened by a re-run
	f.Fuzz(func(t *testing.T, instSeed, moveSeed int64, moves, bound uint8) {
		if instSeed <= 0 || instSeed > 1<<20 {
			t.Skip()
		}
		m, bundles, _ := deltaInstance(t, instSeed)
		rng := rand.New(rand.NewSource(moveSeed))
		var base Base
		m.NewEval().EvaluateBase(bundles, &base)
		deltaArena := m.NewEval()
		fullArena := m.NewEval()
		for mv := 0; mv < int(moves%16)+1; mv++ {
			cand := append([]Bundle(nil), bundles...)
			changed := perturb(rng, cand)
			if changed == nil {
				return
			}
			got := deltaArena.EvaluateDelta(deltaArena.Closure(&base), cand, changed)
			requireIdentical(t, "fuzz", fullArena.Evaluate(cand), got)
			exact := got.NetworkUtility
			b := scoringBounds(exact, base.NetworkUtility())[bound%6]
			score, _ := deltaArena.EvaluateDeltaUtility(deltaArena.Closure(&base), cand, changed, b)
			requireScore(t, "fuzz", score, exact, b)
			bundles = cand
			m.NewEval().EvaluateBase(bundles, &base)
		}
	})
}

// TestDeltaUtilityDifferential is the scoring-mode differential: across
// seeded random instances and many random candidate moves,
// EvaluateDeltaUtility must keep its contract against every bound
// scoringBounds lists — the bit-identical NetworkUtility a full Evaluate
// produces when that beats the bound, a value between the two otherwise
// — while the same arena keeps serving full-result EvaluateDelta and
// CommitDelta calls in between: the interleaving the optimizer's step
// pipeline performs (score utility-only, commit the winner with a full
// result). Both outcomes must occur: scores the bound settled without a
// fold, and scores a fold made exact although the bound let them lose.
func TestDeltaUtilityDifferential(t *testing.T) {
	evals, settled, folded := 0, 0, 0
	for seed := int64(1); seed <= 25; seed++ {
		m, bundles, _ := deltaInstance(t, seed)
		rng := rand.New(rand.NewSource(seed * 1319))
		baseArena := m.NewEval()
		arena := m.NewEval()
		fullArena := m.NewEval()
		var base Base
		baseArena.EvaluateBase(bundles, &base)
		for move := 0; move < 50; move++ {
			cand := append([]Bundle(nil), bundles...)
			changed := perturb(rng, cand)
			if changed == nil {
				break
			}
			want := fullArena.Evaluate(cand).NetworkUtility
			for _, bound := range scoringBounds(want, base.NetworkUtility()) {
				before := arena.bounded
				got, _ := arena.EvaluateDeltaUtility(arena.Closure(&base), cand, changed, bound)
				requireScore(t, fmt.Sprintf("seed %d move %d bound %v", seed, move, bound), got, want, bound)
				if arena.bounded > before {
					settled++
				} else if want <= bound {
					folded++
				}
			}
			evals++
			// Interleave a full-result delta of the same candidate on the
			// same arena: scoring must leave no state behind that skews a
			// subsequent full evaluation.
			full := arena.EvaluateDelta(arena.Closure(&base), cand, changed)
			requireIdentical(t, "full after utility-only", fullArena.Evaluate(cand), full)
			if move%2 == 0 {
				bundles = cand
				baseArena.EvaluateBase(bundles, &base)
			}
		}
	}
	t.Logf("%d candidates × 6 bounds: %d scores settled by the bound, %d losing scores folded", evals, settled, folded)
	if evals < 1000 || settled < evals || folded < evals {
		t.Fatalf("thin coverage: %d candidates, %d settled, %d folded", evals, settled, folded)
	}
}

// TestDeltaUtilityStats pins the per-mode stats split: utility-only
// calls and fallbacks count both in the totals and in their own
// counters, so savings are attributable per mode.
func TestDeltaUtilityStats(t *testing.T) {
	m, bundles, _ := deltaInstance(t, 7)
	arena := m.NewEval()
	var base Base
	arena.EvaluateBase(bundles, &base)
	arena.ResetDeltaStats()

	rng := rand.New(rand.NewSource(99))
	cand := append([]Bundle(nil), bundles...)
	changed := perturb(rng, cand)
	if changed == nil {
		t.Fatal("no movable pair")
	}
	if _, fellBack := arena.EvaluateDeltaUtility(arena.Closure(&base), cand, changed, math.Inf(-1)); fellBack {
		t.Fatal("unexpected fallback on an in-contract candidate")
	}
	if u, fellBack := arena.EvaluateDeltaUtility(arena.Closure(nil), cand, changed, math.Inf(1)); !fellBack {
		t.Fatal("nil base must fall back")
	} else if want := m.NewEval().Evaluate(cand).NetworkUtility; u != want {
		t.Fatalf("fallback utility %v != full %v", u, want)
	}
	arena.EvaluateDelta(arena.Closure(&base), cand, changed)

	s := arena.DeltaStats()
	if s.Calls != 3 || s.UtilityOnlyCalls != 2 {
		t.Fatalf("calls %d / utility-only %d, want 3 / 2", s.Calls, s.UtilityOnlyCalls)
	}
	if s.Fallbacks != 1 {
		t.Fatalf("fallbacks %d, want 1", s.Fallbacks)
	}
	var sum DeltaStats
	sum.Add(s)
	sum.Add(s)
	if sum.UtilityOnlyCalls != 2*s.UtilityOnlyCalls || sum.Fallbacks != 2*s.Fallbacks {
		t.Fatalf("Add dropped counters: %+v", sum)
	}
}

// The delta fill walks, per frozen bundle, the sub-problem links recorded
// for it instead of its path, and the load check decides a touched link
// from its base load and its crossers' summed rate changes, stamped per
// check (a full Result re-sums it afterwards). Both must leave every
// result — full and utility-only —
// bit-identical to Evaluate through the cases that stress them: solves
// that abort or promote a link and re-run wider (every re-run rebuilds
// the incidences and restamps the moved links), a changed bundle re-routed
// so that it leaves some sub-problem links and joins others, and the
// moved-link stamp wrapping over stale marks mid-run.
func TestDeltaSubProblemWalk(t *testing.T) {
	var evals, crossings, skipped, resummed, wraps int
	var stats DeltaStats
	for seed := int64(1); seed <= 40; seed++ {
		m, bundles, paths := deltaInstance(t, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		baseArena, arena, fullArena := m.NewEval(), m.NewEval(), m.NewEval()
		var base Base
		baseArena.EvaluateBase(bundles, &base)
		// A few load checks from now the stamp wraps over stale marks that
		// would alias the epochs after it, and pass off whatever sums they
		// left as the check's: the wrap clears them, and no result may
		// show they were there.
		d := &arena.delta
		d.grow(len(bundles), m.topo.NumLinks(), m.mat.NumAggregates())
		d.movedEpoch = math.MaxUint32 - 2
		for l := range d.movedMark {
			d.movedMark[l] = uint32(1 + l%3)
			d.wDelta[l] = -1e9 // a stale sum that would hide any overload
		}
		for move := 0; move < 40; move++ {
			cand := append([]Bundle(nil), bundles...)
			var changed []int
			if i := rng.Intn(len(cand)); move%3 == 0 && cand[i].Flows > 0 && len(paths[i]) > 1 {
				// Re-route one bundle over another of its aggregate's paths.
				cand[i] = NewBundle(m.topo, cand[i].Agg, cand[i].Flows, paths[i][rng.Intn(len(paths[i]))])
				changed = []int{i}
			} else if changed = perturb(rng, cand); changed == nil {
				break
			}
			want := fullArena.Evaluate(cand)
			if got, _ := arena.EvaluateDeltaUtility(arena.Closure(&base), cand, changed, math.Inf(-1)); got != want.NetworkUtility {
				t.Fatalf("seed %d move %d: utility-only %v != full %v", seed, move, got, want.NetworkUtility)
			}
			fallbacks := arena.DeltaStats().Fallbacks
			requireIdentical(t, "delta vs full", want, arena.EvaluateDelta(arena.Closure(&base), cand, changed))
			evals++
			// What the solve exercised, read off its scratch (which after a
			// fallback describes no solve).
			if arena.DeltaStats().Fallbacks == fallbacks {
				for _, ci := range changed {
					for _, eid := range bundles[ci].Edges {
						if d.linkMark[eid] == d.epoch && !slices.Contains(cand[ci].Edges, eid) {
							crossings++ // left a sub-problem link
						}
					}
					for _, eid := range cand[ci].Edges {
						if d.linkMark[eid] == d.epoch && !slices.Contains(bundles[ci].Edges, eid) {
							crossings++ // joined one
						}
					}
				}
				for _, l := range d.touched {
					switch {
					case d.linkMark[l] == d.epoch: // promoted
					case d.movedMark[l] == d.movedEpoch:
						resummed++
					default:
						skipped++
					}
				}
			}
			if move%2 == 0 {
				bundles = cand
				baseArena.EvaluateBase(bundles, &base)
			}
		}
		if d.movedEpoch < math.MaxUint32-2 {
			wraps++
		}
		stats.Add(arena.DeltaStats())
	}
	t.Logf("%d evaluations, %d fallbacks, %d expansions; changed bundles left or joined %d sub-problem links; "+
		"touched links: %d kept their base load, %d a moved rate crosses; the stamp wrapped on %d instances",
		evals, stats.Fallbacks, stats.Expansions, crossings, skipped, resummed, wraps)
	if evals < 1000 || stats.Expansions < 50 || crossings < 50 || skipped < 100 || resummed < 100 || wraps < 10 {
		t.Fatal("thin coverage")
	}
}
