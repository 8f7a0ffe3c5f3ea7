package mpls

import (
	"context"
	"math"
	"slices"
	"testing"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// diamond builds a four-node topology with a short path (a-b-d, 10ms)
// and a long detour (a-c-d, 40ms), 1000 kbps everywhere.
func diamond(t *testing.T) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("diamond")
	for _, n := range []string{"a", "b", "c", "d"} {
		b.AddNode(n)
	}
	b.AddLink("a", "b", 1000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("b", "d", 1000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("a", "c", 1000*unit.Kbps, 20*unit.Millisecond)
	b.AddLink("c", "d", 1000*unit.Kbps, 20*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

func mustDB(t *testing.T, topo *topology.Topology) *LSPDB {
	t.Helper()
	db, err := NewDB(topo)
	if err != nil {
		t.Fatalf("NewDB: %v", err)
	}
	return db
}

func node(t *testing.T, topo *topology.Topology, name string) topology.NodeID {
	t.Helper()
	id := slices.Index(topo.NodeNames(), name)
	if id < 0 {
		t.Fatalf("no node %q", name)
	}
	return topology.NodeID(id)
}

// reserved reports the bandwidth reserved on a link at and above hold
// priority p.
func reserved(db *LSPDB, l topology.LinkID, p Priority) unit.Bandwidth {
	return unit.Bandwidth(db.reserved[p][l])
}

// available reports a link's headroom for admission at setup priority p.
func available(db *LSPDB, l topology.LinkID, p Priority) unit.Bandwidth {
	return max(0, db.topo.Capacity(l)-reserved(db, l, p))
}

func TestAdmitCSPFUsesShortestWithHeadroom(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")

	id1, err := db.Admit(LSP{Name: "t1", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit t1: %v", err)
	}
	l1, _ := db.Get(id1)
	if got := topo.PathDelay(l1.Path); got != 10 {
		t.Fatalf("t1 delay %v ms, want 10 (short path)", got)
	}

	// Second tunnel needs 600 too; the short path has only 400 free, so
	// CSPF must route it around via c.
	id2, err := db.Admit(LSP{Name: "t2", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit t2: %v", err)
	}
	l2, _ := db.Get(id2)
	if got := topo.PathDelay(l2.Path); got != 40 {
		t.Fatalf("t2 delay %v ms, want 40 (detour)", got)
	}

	// A third 600 does not fit anywhere at priority 7.
	if _, err := db.Admit(LSP{Name: "t3", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7}); err == nil {
		t.Fatal("third 600 kbps tunnel admitted over full network")
	}
}

func TestReservationAccounting(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 250, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	l, _ := db.Get(id)
	for _, e := range l.Path.Edges {
		if got := reserved(db, e, 7); got != 250 {
			t.Fatalf("link %d reserved %v, want 250", e, got)
		}
		if got := available(db, e, 7); got != 750 {
			t.Fatalf("link %d available %v, want 750", e, got)
		}
	}
	if err := db.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	for _, e := range l.Path.Edges {
		if got := reserved(db, e, 7); got != 0 {
			t.Fatalf("link %d still reserves %v after release", e, got)
		}
	}
	if err := db.Release(id); err == nil {
		t.Fatal("double release succeeded")
	}
}

func TestPreemptionEvictsWeakerTunnel(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")

	// Fill both paths with weak (hold 7) tunnels.
	weak1, err := db.Admit(LSP{Name: "weak1", Ingress: a, Egress: d, Bandwidth: 800, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit weak1: %v", err)
	}
	if _, err := db.Admit(LSP{Name: "weak2", Ingress: a, Egress: d, Bandwidth: 800, Setup: 7, Hold: 7}); err != nil {
		t.Fatalf("Admit weak2: %v", err)
	}

	// A strong tunnel (setup 0) sees through the weak reservations.
	strong, err := db.Admit(LSP{Name: "strong", Ingress: a, Egress: d, Bandwidth: 800, Setup: 0, Hold: 0})
	if err != nil {
		t.Fatalf("Admit strong: %v", err)
	}
	sl, _ := db.Get(strong)
	if got := topo.PathDelay(sl.Path); got != 10 {
		t.Fatalf("strong tunnel delay %v ms, want the short path", got)
	}
	// The weak tunnel that shared the short path must be gone (no
	// capacity remains anywhere for its 800).
	if _, alive := db.Get(weak1); alive {
		if l, _ := db.Get(weak1); l.Path.Equal(sl.Path) {
			t.Fatal("preempted tunnel still holds the short path")
		}
	}
	// Total reservation must respect capacity on every link.
	for l := 0; l < topo.NumLinks(); l++ {
		if got := float64(reserved(db, topology.LinkID(l), 7)); got > float64(topo.Capacity(topology.LinkID(l)))+1e-6 {
			t.Fatalf("link %d over-reserved: %v", l, got)
		}
	}
	// Event log must record the preemption.
	var sawPreempt bool
	for _, e := range db.Events() {
		if e.Kind == "preempt" {
			sawPreempt = true
		}
	}
	if !sawPreempt {
		t.Fatal("no preempt event logged")
	}
}

func TestStrongCannotBePreemptedByWeak(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	if _, err := db.Admit(LSP{Name: "strong1", Ingress: a, Egress: d, Bandwidth: 800, Setup: 0, Hold: 0}); err != nil {
		t.Fatalf("Admit strong1: %v", err)
	}
	if _, err := db.Admit(LSP{Name: "strong2", Ingress: a, Egress: d, Bandwidth: 800, Setup: 0, Hold: 0}); err != nil {
		t.Fatalf("Admit strong2: %v", err)
	}
	if _, err := db.Admit(LSP{Name: "weak", Ingress: a, Egress: d, Bandwidth: 800, Setup: 7, Hold: 7}); err == nil {
		t.Fatal("weak tunnel admitted through strong reservations")
	}
}

func TestRerouteMakeBeforeBreak(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	before, _ := db.Get(id)

	// Explicit reroute to the detour.
	detour := findPath(t, topo, "a", "c", "d")
	if err := db.Reroute(id, detour); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	after, _ := db.Get(id)
	if after.Path.Equal(before.Path) {
		t.Fatal("path unchanged after reroute")
	}
	// Old path links fully freed, new path reserved.
	for _, e := range before.Path.Edges {
		if got := reserved(db, e, 7); got != 0 {
			t.Fatalf("old link %d still reserves %v", e, got)
		}
	}
	for _, e := range after.Path.Edges {
		if got := reserved(db, e, 7); got != 600 {
			t.Fatalf("new link %d reserves %v, want 600", e, got)
		}
	}
}

// TestRerouteSharedExplicit verifies the SE-style discount: moving a
// tunnel between two paths sharing a link must not need 2x bandwidth on
// the shared link.
func TestRerouteSharedExplicit(t *testing.T) {
	b := topology.NewBuilder("se")
	for _, n := range []string{"a", "m", "x", "y", "d"} {
		b.AddNode(n)
	}
	// a-m is shared; from m two parallel branches reach d.
	b.AddLink("a", "m", 1000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("m", "x", 1000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("x", "d", 1000*unit.Kbps, 5*unit.Millisecond)
	b.AddLink("m", "y", 1000*unit.Kbps, 10*unit.Millisecond)
	b.AddLink("y", "d", 1000*unit.Kbps, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	// 700 kbps tunnel: fits once on a-m but not twice.
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 700, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	viaY := findPath(t, topo, "a", "m", "y", "d")
	if err := db.Reroute(id, viaY); err != nil {
		t.Fatalf("shared-explicit reroute failed: %v", err)
	}
	after, _ := db.Get(id)
	if !after.Path.Equal(viaY) {
		t.Fatal("reroute did not take effect")
	}
}

func TestRerouteRollsBackOnFailure(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	// Block the detour with a full tunnel.
	if _, err := db.Admit(LSP{Name: "blocker", Ingress: a, Egress: d,
		Bandwidth: 1000, Setup: 7, Hold: 7, Path: findPath(t, topo, "a", "c", "d")}); err != nil {
		t.Fatalf("Admit blocker: %v", err)
	}
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit t: %v", err)
	}
	before, _ := db.Get(id)
	if err := db.Reroute(id, findPath(t, topo, "a", "c", "d")); err == nil {
		t.Fatal("reroute into a full path succeeded")
	}
	after, ok := db.Get(id)
	if !ok {
		t.Fatal("tunnel lost after failed reroute")
	}
	if !after.Path.Equal(before.Path) {
		t.Fatal("tunnel moved despite failed reroute")
	}
	for _, e := range before.Path.Edges {
		if got := reserved(db, e, 7); got != 600 {
			t.Fatalf("reservation damaged by failed reroute: link %d has %v", e, got)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	cases := []struct {
		name string
		lsp  LSP
	}{
		{"bad node", LSP{Ingress: 99, Egress: d}},
		{"negative bw", LSP{Ingress: a, Egress: d, Bandwidth: -1}},
		{"bad priority", LSP{Ingress: a, Egress: d, Setup: 8}},
		{"hold weaker than setup", LSP{Ingress: a, Egress: d, Setup: 3, Hold: 5}},
	}
	for _, tc := range cases {
		if _, err := db.Admit(tc.lsp); err == nil {
			t.Errorf("%s: admitted", tc.name)
		}
	}
	// Path not matching endpoints.
	p := findPath(t, topo, "a", "b", "d")
	if _, err := db.Admit(LSP{Ingress: a, Egress: a, Path: p}); err == nil {
		t.Error("mismatched path endpoints accepted")
	}
}

func TestSyncSolutionInstallsAndReconciles(t *testing.T) {
	topo, err := topology.Ring(8, 4, 800*unit.Kbps, 5)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(5)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	db := mustDB(t, topo)
	stats, err := SyncSolution(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
	if err != nil {
		t.Fatalf("SyncSolution: %v", err)
	}
	wantTunnels := 0
	for _, b := range sol.Bundles {
		if len(b.Edges) > 0 && b.Flows > 0 {
			wantTunnels++
		}
	}
	if stats.Admitted+len(stats.Failed) != wantTunnels {
		t.Fatalf("admitted %d + failed %d != %d backbone bundles",
			stats.Admitted, len(stats.Failed), wantTunnels)
	}
	// The model never assigns more load than capacity, so every tunnel
	// must fit.
	if len(stats.Failed) != 0 {
		t.Fatalf("%d tunnels failed: %v", len(stats.Failed), stats.Failed)
	}
	// No link over-reserved.
	for l, u := range db.Utilization() {
		if u > 1+1e-9 {
			t.Fatalf("link %d reserved %.3fx capacity", l, u)
		}
	}

	// Second sync with the same solution: everything unchanged.
	stats2, err := SyncSolution(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
	if err != nil {
		t.Fatalf("second SyncSolution: %v", err)
	}
	if stats2.Admitted != 0 || stats2.Released != 0 || stats2.Rerouted != 0 {
		t.Fatalf("idempotent sync changed state: %+v", stats2)
	}
	if stats2.Unchanged != stats.Admitted {
		t.Fatalf("unchanged %d, want %d", stats2.Unchanged, stats.Admitted)
	}

	// Sync to shortest paths: tunnels move or are re-signaled, none left
	// stale.
	var spBundles []flowmodel.Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			spBundles = append(spBundles, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			t.Fatalf("no path for aggregate %d", a.ID)
		}
		spBundles = append(spBundles, flowmodel.NewBundle(topo, a.ID, a.Flows, p))
	}
	spRes := model.NewEval().Evaluate(spBundles)
	stats3, err := SyncSolution(db, mat, spBundles, spRes.BundleRate, "fubar", 7, 7)
	if err != nil {
		t.Fatalf("third SyncSolution: %v", err)
	}
	if stats3.Rerouted == 0 && stats3.Admitted == 0 {
		t.Fatalf("nothing moved syncing to shortest paths: %+v", stats3)
	}
	if len(stats3.Failed) != 0 {
		t.Fatalf("feasible re-sync left tunnels down: %v", stats3.Failed)
	}
	for l, u := range db.Utilization() {
		if u > 1+1e-6 {
			t.Fatalf("link %d over-reserved after re-sync: %.6fx", l, u)
		}
	}
	t.Logf("fubar->sp sync: %+v", stats3)
}

func TestSyncSolutionErrors(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	if _, err := SyncSolution(nil, nil, nil, nil, "", 7, 7); err == nil {
		t.Fatal("nil db accepted")
	}
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 3, Class: utility.ClassBulk, Flows: 1, Fn: utility.Bulk(), Weight: 1},
	})
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if _, err := SyncSolution(db, mat, make([]flowmodel.Bundle, 2), make([]float64, 1), "", 7, 7); err == nil {
		t.Fatal("mismatched rates accepted")
	}
}

// findPath builds the path through the named nodes.
func findPath(t *testing.T, topo *topology.Topology, names ...string) graph.Path {
	t.Helper()
	var edges []graph.EdgeID
	for i := 0; i+1 < len(names); i++ {
		from, to := node(t, topo, names[i]), node(t, topo, names[i+1])
		found := false
		for _, l := range topo.Links() {
			if l.From == from && l.To == to {
				edges = append(edges, l.ID)
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no link %s->%s", names[i], names[i+1])
		}
	}
	return graph.Path{Edges: edges}
}

func TestLSPsSortedCopies(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	var ids []LSPID
	for _, name := range []string{"t1", "t2", "t3"} {
		id, err := db.Admit(LSP{Name: name, Ingress: a, Egress: d, Bandwidth: 100, Setup: 7, Hold: 7})
		if err != nil {
			t.Fatalf("Admit %s: %v", name, err)
		}
		ids = append(ids, id)
	}
	if err := db.Release(ids[1]); err != nil {
		t.Fatalf("Release: %v", err)
	}
	got := db.LSPs()
	if len(got) != 2 || got[0].ID != ids[0] || got[1].ID != ids[2] {
		t.Fatalf("LSPs = %+v, want t1 then t3", got)
	}
	if got[0].Name != "t1" || got[1].Name != "t3" || got[0].Bandwidth != 100 {
		t.Errorf("LSPs lost fields: %+v", got)
	}
	// The values are copies: editing them leaves the database alone.
	got[0].Bandwidth = 999
	if l, _ := db.Get(ids[0]); l.Bandwidth != 100 {
		t.Errorf("LSPs aliases the stored bandwidth: %v", l.Bandwidth)
	}
	if got := db.Topology(); got != topo {
		t.Error("Topology is not the database's topology")
	}
}

// TestReservationOccupiesHoldAndWeakerLevels pins the per-priority
// booking: an LSP held at priority h is counted at every level p >= h
// and invisible below, so only a setup priority stronger than h sees
// through it.
func TestReservationOccupiesHoldAndWeakerLevels(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	id, err := db.Admit(LSP{Name: "mid", Ingress: a, Egress: d, Bandwidth: 400, Setup: 3, Hold: 3})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	l, _ := db.Get(id)
	for _, e := range l.Path.Edges {
		for p := Priority(0); p < NumPriorities; p++ {
			want := unit.Bandwidth(0)
			if p >= 3 {
				want = 400
			}
			if got := reserved(db, e, p); got != want {
				t.Errorf("link %d level %d reserves %v, want %v", e, p, got, want)
			}
		}
	}
	short := l.Path
	if p, ok := db.CSPF(a, d, 1000, 2); !ok || !p.Equal(short) {
		t.Errorf("setup 2 CSPF for 1000 = %v (ok %v), want the short path through the hold-3 LSP", p, ok)
	}
	if p, ok := db.CSPF(a, d, 1000, 3); !ok || p.Equal(short) {
		t.Errorf("setup 3 CSPF for 1000 = %v (ok %v), want the detour", p, ok)
	}
	if _, ok := db.CSPF(a, d, 1001, 0); ok {
		t.Error("CSPF found room for more than any link's capacity")
	}
}

func TestUtilizationCountsEveryPriority(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	short := findPath(t, topo, "a", "b", "d")
	strong, err := db.Admit(LSP{Name: "strong", Ingress: a, Egress: d, Bandwidth: 300, Setup: 0, Hold: 0, Path: short})
	if err != nil {
		t.Fatalf("Admit strong: %v", err)
	}
	if _, err := db.Admit(LSP{Name: "weak", Ingress: a, Egress: d, Bandwidth: 200, Setup: 7, Hold: 7, Path: short}); err != nil {
		t.Fatalf("Admit weak: %v", err)
	}
	check := func(want float64) {
		t.Helper()
		for l, u := range db.Utilization() {
			w := 0.0
			if short.Contains(graph.EdgeID(l)) {
				w = want
			}
			if math.Abs(u-w) > 1e-12 {
				t.Errorf("link %s utilization %v, want %v", topo.LinkName(topology.LinkID(l)), u, w)
			}
		}
	}
	check(0.5)
	if err := db.Release(strong); err != nil {
		t.Fatalf("Release: %v", err)
	}
	check(0.2)
}

// TestRerouteRecomputesWithOwnReservation checks a CSPF reroute (empty
// path): the tunnel's own reservation is discounted, so a tunnel whose
// path has no room for a second copy of itself stays where it is, and
// a rejected reroute leaves the tunnel and its reservation in place.
func TestRerouteRecomputesWithOwnReservation(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	short, detour := findPath(t, topo, "a", "b", "d"), findPath(t, topo, "a", "c", "d")
	if _, err := db.Admit(LSP{Name: "blocker", Ingress: a, Egress: d, Bandwidth: 1000, Setup: 7, Hold: 7, Path: detour}); err != nil {
		t.Fatalf("Admit blocker: %v", err)
	}
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 600, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit t: %v", err)
	}
	if err := db.Reroute(id, graph.Path{}); err != nil {
		t.Fatalf("CSPF reroute with the own reservation discounted failed: %v", err)
	}
	check := func(what string) {
		t.Helper()
		l, ok := db.Get(id)
		if !ok || !l.Path.Equal(short) {
			t.Fatalf("%s: tunnel %v (ok %v), want it on the short path", what, l.Path, ok)
		}
		for _, e := range short.Edges {
			if got := reserved(db, e, 7); got != 600 {
				t.Fatalf("%s: link %d reserves %v, want 600", what, e, got)
			}
		}
	}
	check("CSPF reroute")
	// A path that does not join the tunnel's endpoints is refused.
	if err := db.Reroute(id, findPath(t, topo, "a", "c")); err == nil {
		t.Fatal("reroute onto a path ending at c accepted")
	}
	check("refused reroute")
	if err := db.Reroute(id+100, graph.Path{}); err == nil {
		t.Fatal("reroute of an unknown LSP accepted")
	}
	if n := len(db.LSPs()); n != 2 {
		t.Fatalf("%d LSPs after the reroutes, want 2", n)
	}
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	topo := diamond(t)
	db := mustDB(t, topo)
	a, d := node(t, topo, "a"), node(t, topo, "d")
	id, err := db.Admit(LSP{Name: "t", Ingress: a, Egress: d, Bandwidth: 100, Setup: 7, Hold: 7})
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if err := db.Reroute(id, findPath(t, topo, "a", "c", "d")); err != nil {
		t.Fatalf("Reroute: %v", err)
	}
	if err := db.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// A refused request logs nothing.
	if err := db.Release(id); err == nil {
		t.Fatal("double release succeeded")
	}
	events := db.Events()
	want := []string{"admit", "reroute", "release"}
	if len(events) != len(want) {
		t.Fatalf("events = %+v, want kinds %v", events, want)
	}
	for i, e := range events {
		if e.Kind != want[i] || e.LSP != id || e.Detail == "" {
			t.Errorf("event %d = %+v, want %s of LSP %d with a detail", i, e, want[i], id)
		}
	}
	events[0].Kind = "edited"
	if db.Events()[0].Kind != "admit" {
		t.Error("Events aliases the database's log")
	}
}
