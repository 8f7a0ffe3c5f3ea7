package flowmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fubar/internal/instance"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// heLikeInstance is the catalogue's HE-bench instance (seed 5) with a dense
// allocation — the list shape core's trial-move engine evaluates.
func heLikeInstance(tb testing.TB) (*Model, []Bundle) {
	tb.Helper()
	topo, mat, err := instance.HEBench(5)
	if err != nil {
		tb.Fatal(err)
	}
	return denseAllocation(tb, topo, mat, 3)
}

// heCrisisInstance is the replay benchmark's HE-31 at the onset of its
// crisis timeline (heCrisisList at the timeline's ×1.3 flash crowd, step
// placeholders kept).
func heCrisisInstance(tb testing.TB) (*Model, []Bundle) {
	return heCrisisList(tb, 1.3, true)
}

// heCrisisList is heLikeInstance's topology and matrix in a crisis: every
// aggregate's flow count × spike (the flash crowd, as the scenario engine
// scales demand) and two physical links out of service (the shared-risk
// outage: zero capacity, forbidden to the path generator), allocated by
// startAllocation. Most loaded links bind, so a move's closure routinely
// covers a quarter of the active bundles and is widened by re-runs.
func heCrisisList(tb testing.TB, spike float64, placeholders bool) (*Model, []Bundle) {
	tb.Helper()
	topo, he, err := instance.HEBench(5)
	if err != nil {
		tb.Fatal(err)
	}
	forbidden := pathgen.ForbidLinks(topo, 4, 30)
	caps := make([]unit.Bandwidth, topo.NumLinks())
	for l := range caps {
		if !forbidden[l] {
			caps[l] = topo.Link(topology.LinkID(l)).Capacity
		}
	}
	if topo, err = topo.WithCapacities(caps); err != nil {
		tb.Fatal(err)
	}
	aggs := he.Aggregates()
	for i := range aggs {
		aggs[i].Flows = int(math.Round(float64(aggs[i].Flows) * spike))
	}
	mat, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		tb.Fatal(err)
	}
	return startAllocation(tb, topo, mat, pathgen.Policy{ForbiddenLinks: forbidden}, placeholders)
}

// ringTenantInstance is the closed-loop soak ring a daemon tenant holds
// (ringTenantList at its own load, step placeholders kept): a list short
// enough that a full fill and a delta cost about the same.
func ringTenantInstance(tb testing.TB) (*Model, []Bundle) {
	return ringTenantList(tb, 1, true)
}

// ringTenantList is the 6-node soak ring under its 30 backbone aggregates,
// every flow count × load, allocated by startAllocation. From load 5 up
// every link binds and a move's closure is the whole list.
func ringTenantList(tb testing.TB, load float64, placeholders bool) (*Model, []Bundle) {
	tb.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	cfg.IncludeSelfPairs = false
	light, err := traffic.Generate(topo, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	aggs := light.Aggregates()
	for i := range aggs {
		aggs[i].Flows = int(math.Round(float64(aggs[i].Flows) * load))
	}
	mat, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		tb.Fatal(err)
	}
	return startAllocation(tb, topo, mat, pathgen.Policy{}, placeholders)
}

// scalePresets are the catalogue's presets above the smoke size.
var scalePresets = []string{"scale-s", "scale-m", "scale-l"}

// presetInstance draws the named preset's seed-1 instance and splits every
// aggregate's flows across its paths lowest-delay paths (denseAllocation);
// paths = 1 is the lowest-delay list.
func presetInstance(tb testing.TB, name string, paths int) (*Model, []Bundle) {
	tb.Helper()
	topo, mat, err := instance.Scale(name, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return denseAllocation(tb, topo, mat, paths)
}

// denseAllocation splits every aggregate's flows across its k
// lowest-delay paths, some entries zero.
func denseAllocation(tb testing.TB, topo *topology.Topology, mat *traffic.Matrix, k int) (*Model, []Bundle) {
	tb.Helper()
	m, err := New(topo, mat)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := pathgen.New(topo, pathgen.Policy{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var bundles []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		paths := gen.KLowestDelay(a.Src, a.Dst, k)
		if len(paths) == 0 {
			tb.Fatalf("no path for aggregate %d", a.ID)
		}
		left := a.Flows
		for pi, p := range paths {
			n := 0
			if pi == len(paths)-1 {
				n = left
			} else if left > 0 {
				n = rng.Intn(left + 1)
			}
			bundles = append(bundles, NewBundle(topo, a.ID, n, p))
			left -= n
		}
	}
	return m, bundles
}

// startAllocation lays a matrix out as the optimizer has it a few steps
// into a run: every aggregate on its lowest-delay path, every third one
// with a quarter of its flows already moved to its second path. With
// placeholders, each aggregate's other entries among its three lowest-delay
// paths stay in the list at zero flows — the dense step list's shape;
// without, the list is the positive one.
func startAllocation(tb testing.TB, topo *topology.Topology, mat *traffic.Matrix, policy pathgen.Policy, placeholders bool) (*Model, []Bundle) {
	tb.Helper()
	m, err := New(topo, mat)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := pathgen.New(topo, policy)
	if err != nil {
		tb.Fatal(err)
	}
	var bundles []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		paths := gen.KLowestDelay(a.Src, a.Dst, 3)
		if len(paths) == 0 {
			tb.Fatalf("no path for aggregate %d", a.ID)
		}
		moved := 0
		if len(paths) > 1 && a.ID%3 == 0 {
			moved = a.Flows / 4
		}
		for pi, p := range paths {
			n := 0
			switch pi {
			case 0:
				n = a.Flows - moved
			case 1:
				n = moved
			}
			if n > 0 || placeholders {
				bundles = append(bundles, NewBundle(topo, a.ID, n, p))
			}
		}
	}
	return m, bundles
}

// relievingMoves enumerates trial moves the way an optimizer step does:
// for each congested link of the list's evaluation, most oversubscribed
// first, every bundle crossing it paired with every entry of its aggregate
// that avoids it — at most n (from, to) index pairs.
func relievingMoves(m *Model, bundles []Bundle, n int) [][2]int {
	var out [][2]int
	for _, l := range m.CongestedByOversubscription(m.NewEval().Evaluate(bundles)) {
		for from, b := range bundles {
			if b.Flows <= 0 || !slices.Contains(b.Edges, l) {
				continue
			}
			for to, c := range bundles {
				if to != from && c.Agg == b.Agg && !slices.Contains(c.Edges, l) {
					if out = append(out, [2]int{from, to}); len(out) == n {
						return out
					}
				}
			}
		}
	}
	return out
}

// moveCandidates derives core-shaped trial moves from a dense list: shift
// some flows between two same-aggregate entries.
func moveCandidates(bundles []Bundle, n int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	var segs [][]int
	maxAgg := traffic.AggregateID(-1)
	for _, b := range bundles {
		if b.Agg > maxAgg {
			maxAgg = b.Agg
		}
	}
	byAgg := make([][]int, maxAgg+1)
	for i, b := range bundles {
		byAgg[b.Agg] = append(byAgg[b.Agg], i)
	}
	for _, idx := range byAgg {
		if len(idx) > 1 {
			segs = append(segs, idx)
		}
	}
	var out [][2]int
	for len(out) < n {
		seg := segs[rng.Intn(len(segs))]
		from := seg[rng.Intn(len(seg))]
		to := seg[rng.Intn(len(seg))]
		if from == to || bundles[from].Flows == 0 {
			continue
		}
		out = append(out, [2]int{from, to})
	}
	return out
}

// BenchmarkEvaluateFullCandidate is the pre-delta cost of one candidate:
// a full water-filling of the patched list.
func BenchmarkEvaluateFullCandidate(b *testing.B) {
	m, bundles := heLikeInstance(b)
	moves := moveCandidates(bundles, 256, 3)
	arena := m.NewEval()
	buf := append([]Bundle(nil), bundles...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mv := moves[i%len(moves)]
		n := 1 + buf[mv[0]].Flows/2
		buf[mv[0]].Flows -= n
		buf[mv[1]].Flows += n
		arena.Evaluate(buf)
		buf[mv[0]].Flows += n
		buf[mv[1]].Flows -= n
	}
}

// BenchmarkEvaluateDeltaCandidate is the same candidates through the
// incremental path against a captured base: with the full Result
// (EvaluateDelta, what a commit pays), scored exactly
// (EvaluateDeltaUtility with bound −Inf, what a winning candidate pays) and
// scored against the base utility + 1e-6 (bounded, what a losing candidate
// pays: no fold when the bound settles it; folded-frac says how often it
// did not). The he and scale-s legs score random moves on a list and on
// one ≈8× longer: a per-candidate term proportional to the list, not to
// affected-frac × list, shows as ns/affected-bundle growing with the
// instance — on the utility rows by the aggregate fold they still pay, on
// the bounded rows not at all. The he-crisis and ring legs score
// congestion-relieving moves where the delta is at its worst — closures
// of a quarter of the active bundles widened by re-runs, and a list so
// short that set-up is most of any evaluation. Every leg also times a
// full Evaluate of the same patched lists, so "a delta never costs more
// than a full fill" is the delta/full column staying under 1.
func BenchmarkEvaluateDeltaCandidate(b *testing.B) {
	for _, inst := range []struct {
		name      string
		build     func(testing.TB) (*Model, []Bundle)
		relieving bool
	}{{"he", heLikeInstance, false},
		{"scale-s", func(tb testing.TB) (*Model, []Bundle) { return presetInstance(tb, "scale-s", 3) }, false},
		{"he-crisis", heCrisisInstance, true}, {"ring", ringTenantInstance, true}} {
		m, bundles := inst.build(b)
		moves := moveCandidates(bundles, 256, 3)
		if inst.relieving {
			moves = relievingMoves(m, bundles, 256)
		}
		var base Base
		m.NewEval().EvaluateBase(bundles, &base)
		for _, mode := range []string{"result", "utility", "bounded"} {
			bound := math.Inf(-1)
			if mode == "bounded" {
				bound = base.NetworkUtility() + 1e-6
			}
			b.Run(inst.name+"/"+mode, func(b *testing.B) {
				arena := m.NewEval()
				buf := append([]Bundle(nil), bundles...)
				// each applies candidate i's patch around eval and reverts it.
				each := func(calls int, eval func(changed []int)) {
					for i := 0; i < calls; i++ {
						mv := moves[i%len(moves)]
						n := 1 + buf[mv[0]].Flows/2
						buf[mv[0]].Flows -= n
						buf[mv[1]].Flows += n
						changed := [2]int{min(mv[0], mv[1]), max(mv[0], mv[1])}
						eval(changed[:])
						buf[mv[0]].Flows += n
						buf[mv[1]].Flows -= n
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				each(b.N, func(changed []int) {
					if mode == "result" {
						arena.EvaluateDelta(arena.Closure(&base), buf, changed)
					} else {
						arena.EvaluateDeltaUtility(arena.Closure(&base), buf, changed, bound)
					}
				})
				b.StopTimer()
				perDelta := float64(b.Elapsed()) / float64(b.N)
				nFull := min(b.N, len(moves)) // one pass over the moves prices a full fill
				each(min(nFull, 32), func([]int) { arena.Evaluate(buf) })
				fullStart := time.Now()
				each(nFull, func([]int) { arena.Evaluate(buf) })
				perFull := float64(time.Since(fullStart)) / float64(nFull)
				st := arena.DeltaStats()
				b.ReportMetric(float64(len(bundles)), "bundles")
				b.ReportMetric(float64(st.Fallbacks)/float64(st.Calls), "fallback-frac")
				b.ReportMetric(float64(st.AffectedBundles)/float64(max(1, st.ListBundles)), "affected-frac")
				b.ReportMetric(float64(st.Expansions)/float64(st.Calls), "reruns/call")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(1, st.AffectedBundles)), "ns/affected-bundle")
				b.ReportMetric(perDelta/perFull, "delta/full")
				if mode == "bounded" {
					b.ReportMetric(1-float64(arena.bounded)/float64(st.UtilityOnlyCalls), "folded-frac")
				}
			})
		}
	}
}
