package flowmodel

import (
	"math/rand"
	"testing"

	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// heLikeInstance builds a HE-31-shaped congested instance with a dense
// allocation — the list shape core's trial-move engine evaluates.
func heLikeInstance(tb testing.TB) (*Model, []Bundle) {
	tb.Helper()
	topo, err := topology.HurricaneElectric(6 * unit.Mbps)
	if err != nil {
		tb.Fatal(err)
	}
	full, err := traffic.Generate(topo, benchGenConfig(5))
	if err != nil {
		tb.Fatal(err)
	}
	mat, err := full.Subset(func(a traffic.Aggregate) bool { return a.ID%5 == 0 })
	if err != nil {
		tb.Fatal(err)
	}
	return denseAllocation(tb, topo, mat)
}

// scaleSInstance is the scale-s preset (internal/scenario, which this
// package cannot import): a 100-node Waxman topology under 1500 sparse
// aggregates, ≈8× heLikeInstance's bundle list. What a candidate perturbs
// does not grow with the list, so neither should the cost of scoring it.
func scaleSInstance(tb testing.TB) (*Model, []Bundle) {
	tb.Helper()
	topo, err := topology.Waxman(100, 0.25, 0.15, 16*unit.Mbps, 50*unit.Millisecond, 1)
	if err != nil {
		tb.Fatal(err)
	}
	mat, err := traffic.Sparse(topo, benchGenConfig(2), 1500)
	if err != nil {
		tb.Fatal(err)
	}
	return denseAllocation(tb, topo, mat)
}

func benchGenConfig(seed int64) traffic.GenConfig {
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	return cfg
}

// denseAllocation splits every aggregate's flows across its 3
// lowest-delay paths, some entries zero.
func denseAllocation(tb testing.TB, topo *topology.Topology, mat *traffic.Matrix) (*Model, []Bundle) {
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
		paths := gen.KLowestDelay(a.Src, a.Dst, 3)
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
// (EvaluateDelta, what a commit pays) and scored only
// (EvaluateDeltaUtility, what every candidate pays), on the HE-like list
// and on the ≈8× longer scale-s one. A per-candidate term proportional to
// the list, not to affected-frac × list, shows as the utility rows'
// ns/affected-bundle growing with the instance.
func BenchmarkEvaluateDeltaCandidate(b *testing.B) {
	for _, inst := range []struct {
		name  string
		build func(testing.TB) (*Model, []Bundle)
	}{{"he", heLikeInstance}, {"scale-s", scaleSInstance}} {
		m, bundles := inst.build(b)
		moves := moveCandidates(bundles, 256, 3)
		var base Base
		m.NewEval().EvaluateBase(bundles, &base)
		for _, utilityOnly := range []bool{false, true} {
			name := inst.name + "/result"
			if utilityOnly {
				name = inst.name + "/utility"
			}
			b.Run(name, func(b *testing.B) {
				arena := m.NewEval()
				buf := append([]Bundle(nil), bundles...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mv := moves[i%len(moves)]
					n := 1 + buf[mv[0]].Flows/2
					buf[mv[0]].Flows -= n
					buf[mv[1]].Flows += n
					changed := [2]int{min(mv[0], mv[1]), max(mv[0], mv[1])}
					if utilityOnly {
						arena.EvaluateDeltaUtility(&base, buf, changed[:])
					} else {
						arena.EvaluateDelta(&base, buf, changed[:])
					}
					buf[mv[0]].Flows += n
					buf[mv[1]].Flows -= n
				}
				st := arena.DeltaStats()
				b.ReportMetric(float64(len(bundles)), "bundles")
				b.ReportMetric(float64(st.Fallbacks)/float64(st.Calls), "fallback-frac")
				b.ReportMetric(float64(st.AffectedBundles)/float64(max(1, st.ListBundles)), "affected-frac")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(1, st.AffectedBundles)), "ns/affected-bundle")
			})
		}
	}
}
