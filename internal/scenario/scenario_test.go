package scenario

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"fubar/internal/core"
	"fubar/internal/graph"
	"fubar/internal/instance"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// ringInstance is a small congested instance for fast replay tests: an
// 8-node ring with 4 chords at the given capacity, drawn at topoSeed, and a
// full matrix of 2–8 real-time and 1–4 bulk flows per aggregate drawn at
// trafficSeed.
func ringInstance(t *testing.T, capacity unit.Bandwidth, topoSeed, trafficSeed int64) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Ring(8, 4, capacity, topoSeed)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(trafficSeed)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return topo, mat
}

// heInstance is the acceptance instance: instance.HEBench at the seed
// DESIGN.md's warm-vs-cold and MBB-headroom findings were measured on.
func heInstance(t *testing.T) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, mat, err := instance.HEBench(5)
	if err != nil {
		t.Fatalf("HEBench: %v", err)
	}
	return topo, mat
}

// TestDiurnalHEReplay is the subsystem's acceptance test: a 20-epoch
// diurnal scenario on the Hurricane Electric topology replays
// deterministically (same seed => identical epoch table at any worker
// count) and warm-started epochs commit measurably fewer optimizer
// steps than cold starts.
func TestDiurnalHEReplay(t *testing.T) {
	topo, mat := heInstance(t)
	sc := Diurnal(7, 20, 0.4, 0.1)

	warm1, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatalf("warm Workers=1: %v", err)
	}
	warm4, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 4}})
	if err != nil {
		t.Fatalf("warm Workers=4: %v", err)
	}
	if err := warm1.Equivalent(warm4); err != nil {
		t.Fatalf("Workers 1 vs 4: %v", err)
	}
	cold, err := run(context.Background(), topo, mat, sc, Options{ColdStart: true, Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	if len(warm1.Epochs) != 20 || len(cold.Epochs) != 20 {
		t.Fatalf("epoch counts: warm %d, cold %d, want 20", len(warm1.Epochs), len(cold.Epochs))
	}
	for i, e := range warm1.Epochs {
		if wantWarm := i > 0; e.WarmStart != wantWarm {
			t.Errorf("epoch %d: WarmStart = %v, want %v", i, e.WarmStart, wantWarm)
		}
		if e.Utility < e.StaleUtility-1e-9 {
			t.Errorf("epoch %d: re-optimization lost utility: stale %.6f -> %.6f", i, e.StaleUtility, e.Utility)
		}
	}
	ws, cs := warm1.TotalSteps(), cold.TotalSteps()
	if ws*3/2 > cs {
		t.Fatalf("warm start saved too little: warm %d steps, cold %d steps", ws, cs)
	}
	t.Logf("warm %d steps (mean u %.4f) vs cold %d steps (mean u %.4f): %.1fx fewer",
		ws, warm1.MeanUtility(), cs, cold.MeanUtility(), float64(cs)/float64(ws))
}

// TestReplayDeterminismSmall: every canned scenario replays to an
// identical table for the same seed, on a small ring instance.
func TestReplayDeterminismSmall(t *testing.T) {
	topo, mat := ringInstance(t, 800*unit.Kbps, 3, 3)
	for _, name := range []string{"diurnal", "storm", "flashcrowd"} {
		sc, err := ByName(name, 11, 6)
		if err != nil {
			t.Fatal(err)
		}
		a, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 1}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 2}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.Equivalent(b); err != nil {
			t.Errorf("%s: identical seed: %v", name, err)
		}
	}
}

// TestQuiescentEpochIsFree: with no events between epochs the warm start
// is already optimal — zero steps, zero churn, stale utility equal to
// the previous epoch's utility (self-pairs included in the stale eval).
func TestQuiescentEpochIsFree(t *testing.T) {
	topo, mat := ringInstance(t, 800*unit.Kbps, 5, 5)
	res, err := run(context.Background(), topo, mat, Scenario{Name: "quiet", Seed: 1, Epochs: 3}, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Epochs[1:] {
		if e.Steps != 0 || e.FlowMods != 0 || e.PathsChanged != 0 || e.FlowsMoved != 0 {
			t.Errorf("quiescent epoch %d did work: %+v", e.Epoch, e)
		}
		if e.StaleUtility != res.Epochs[e.Epoch-1].Utility {
			t.Errorf("epoch %d stale %.9f != previous utility %.9f",
				e.Epoch, e.StaleUtility, res.Epochs[e.Epoch-1].Utility)
		}
		if e.RepairDropped != 0 || e.RepairMovedFlows != 0 {
			t.Errorf("quiescent epoch %d repaired: %+v", e.Epoch, e)
		}
	}
}

// TestExplicitFailureEpisode: failing and recovering a named link drives
// the failed-link count, forces repair work, and recovers utility.
func TestExplicitFailureEpisode(t *testing.T) {
	topo, mat := ringInstance(t, 800*unit.Kbps, 7, 7)
	sc := Scenario{
		Name: "one-failure", Seed: 2, Epochs: 5,
		Events: []Event{
			{Epoch: 1, Kind: LinkFail, Link: 0},
			{Epoch: 3, Kind: LinkRecover, Link: 0},
		},
	}
	res, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantFailed := []int{0, 1, 1, 0, 0}
	for i, e := range res.Epochs {
		if e.FailedLinks != wantFailed[i] {
			t.Errorf("epoch %d: FailedLinks = %d, want %d", i, e.FailedLinks, wantFailed[i])
		}
	}
	if res.Epochs[1].RepairMovedFlows == 0 {
		t.Error("link failure repaired no flows (link 0 should carry traffic on a ring)")
	}
	if res.Epochs[1].FlowMods == 0 {
		t.Error("link failure pushed no flow mods")
	}
	if res.Epochs[3].Utility < res.Epochs[2].Utility {
		t.Errorf("recovery lowered utility: %.4f -> %.4f", res.Epochs[2].Utility, res.Epochs[3].Utility)
	}
}

// TestScenarioValidate covers timeline validation errors.
func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"zero epochs", Scenario{Epochs: 0}},
		{"event past end", Scenario{Epochs: 2, Events: []Event{{Epoch: 2, Kind: DemandScale, Factor: 1}}}},
		{"negative epoch", Scenario{Epochs: 2, Events: []Event{{Epoch: -1, Kind: DemandScale, Factor: 1}}}},
		{"zero factor", Scenario{Epochs: 2, Events: []Event{{Kind: DemandScale}}}},
		{"bad churn fraction", Scenario{Epochs: 2, Events: []Event{{Kind: DemandChurn, Factor: 0.2, Fraction: 1.5}}}},
		{"zero count", Scenario{Epochs: 2, Events: []Event{{Kind: AggregateArrive}}}},
		{"unknown kind", Scenario{Epochs: 2, Events: []Event{{Kind: EventKind(99)}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	topo, mat := ringInstance(t, 800*unit.Kbps, 1, 1)
	bad := Scenario{Epochs: 1, Events: []Event{{Kind: LinkFail, Link: topology.LinkID(topo.NumLinks())}}}
	if _, err := run(context.Background(), topo, mat, bad, Options{}); err == nil {
		t.Error("out-of-range link accepted")
	}
}

// TestGeneratorsProduceValidScenarios: canned scenarios validate for a
// range of epoch counts, including degenerate short ones.
func TestGeneratorsProduceValidScenarios(t *testing.T) {
	for _, epochs := range []int{1, 2, 3, 5, 20} {
		for _, name := range Names() {
			sc, err := ByName(name, 3, epochs)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, epochs, err)
			}
			if err := sc.Validate(); err != nil {
				t.Errorf("%s/%d: %v", name, epochs, err)
			}
		}
	}
	if _, err := ByName("nope", 1, 5); err == nil {
		t.Error("unknown scenario name accepted")
	}
	if err := (Scenario{Epochs: 10, Events: FailureStorm(1, 10, 3).Events}).Validate(); err != nil {
		t.Errorf("storm events invalid: %v", err)
	}
}

// TestChurnMetric exercises the diff directly.
func TestChurnMetric(t *testing.T) {
	p := func(edges ...graph.EdgeID) []graph.EdgeID { return edges }
	prev := []keyedBundle{
		{key: 1, flows: 10, edges: p(0, 1)},
		{key: 1, flows: 5, edges: p(2)},
		{key: 2, flows: 4, edges: p(3)},
	}
	next := []keyedBundle{
		{key: 1, flows: 12, edges: p(0, 1)}, // modified +2
		{key: 1, flows: 3, edges: p(4)},     // new path
		{key: 2, flows: 4, edges: p(3)},     // unchanged
	}
	pathsChanged, flowsMoved, flowMods := churn(prev, next)
	if pathsChanged != 2 { // path (1,[2]) removed, path (1,[4]) added
		t.Errorf("pathsChanged = %d, want 2", pathsChanged)
	}
	if flowsMoved != 5 { // +2 on (0,1), +3 on (4)
		t.Errorf("flowsMoved = %d, want 5", flowsMoved)
	}
	if flowMods != 3 { // modify (0,1), add (4), delete (2)
		t.Errorf("flowMods = %d, want 3", flowMods)
	}
	// Same aggregate key on the same path in another aggregate: keys
	// separate identical edge sequences.
	a, b, c := churn(nil, []keyedBundle{{key: 1, flows: 1, edges: p(0)}, {key: 2, flows: 1, edges: p(0)}})
	if a != 2 || b != 2 || c != 2 {
		t.Errorf("initial install churn = %d/%d/%d, want 2/2/2", a, b, c)
	}
}

// churnByMap is the churn diff as it was before the sort-merge: two maps
// keyed by the formatted (aggregate key, path). Kept as the oracle of
// TestChurnMatchesMapOracle.
func churnByMap(prev, next []keyedBundle) (pathsChanged, flowsMoved, flowMods int) {
	index := func(bs []keyedBundle) map[string]int {
		m := make(map[string]int, len(bs))
		for _, b := range bs {
			k := strconv.FormatInt(b.key, 10) + "|" + pathKey(b.edges)
			m[k] += b.flows
		}
		return m
	}
	old, cur := index(prev), index(next)
	for k, nf := range cur {
		of := old[k]
		if of == 0 {
			pathsChanged++
		}
		if nf != of {
			flowMods++
		}
		if nf > of {
			flowsMoved += nf - of
		}
	}
	for k := range old {
		if _, ok := cur[k]; !ok {
			pathsChanged++
			flowMods++
		}
	}
	return
}

// pathKey renders an edge sequence as a map key.
func pathKey(edges []topology.LinkID) string {
	var b []byte
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// TestChurnMatchesMapOracle: the sort-merge diff counts what the map diff
// counted on 2000 random pairs of keyed allocations drawn to collide — few
// keys, short paths over few links — with entries listed twice, zero-flow
// entries, and either side empty.
func TestChurnMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	draw := func() []keyedBundle {
		var bs []keyedBundle
		for n := rng.Intn(12); len(bs) < n; {
			b := keyedBundle{key: int64(rng.Intn(4)), flows: rng.Intn(4)}
			for hops := rng.Intn(4); len(b.edges) < hops; {
				b.edges = append(b.edges, graph.EdgeID(rng.Intn(3)))
			}
			bs = append(bs, b)
			if rng.Intn(4) == 0 { // the same (key, path) again, with flows of its own
				b.flows = rng.Intn(4)
				bs = append(bs, b)
			}
		}
		return bs
	}
	empties, dups, zeros := 0, 0, 0
	for i := 0; i < 2000; i++ {
		prev, next := draw(), draw()
		if len(prev) == 0 || len(next) == 0 {
			empties++
		}
		wantP, wantM, wantF := churnByMap(prev, next)
		sp, sn := slices.Clone(prev), slices.Clone(next)
		slices.SortFunc(sp, compareKeyed)
		slices.SortFunc(sn, compareKeyed)
		for j := 1; j < len(sn); j++ {
			if compareKeyed(sn[j-1], sn[j]) == 0 {
				dups++
			}
			if sn[j].flows == 0 {
				zeros++
			}
		}
		if p, m, f := churn(sp, sn); p != wantP || m != wantM || f != wantF {
			t.Fatalf("pair %d: churn = %d/%d/%d, map oracle %d/%d/%d\n prev %+v\n next %+v", i, p, m, f, wantP, wantM, wantF, prev, next)
		}
	}
	if empties == 0 || dups == 0 || zeros == 0 {
		t.Errorf("draws covered %d empty sides, %d duplicate entries, %d zero-flow entries: want all three", empties, dups, zeros)
	}
}
