package mpls

import (
	"context"
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
	id, ok := topo.NodeByName(name)
	if !ok {
		t.Fatalf("no node %q", name)
	}
	return id
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
		if got := db.Reserved(e, 7); got != 250 {
			t.Fatalf("link %d reserved %v, want 250", e, got)
		}
		if got := db.Available(e, 7); got != 750 {
			t.Fatalf("link %d available %v, want 750", e, got)
		}
	}
	if err := db.Release(id); err != nil {
		t.Fatalf("Release: %v", err)
	}
	for _, e := range l.Path.Edges {
		if got := db.Reserved(e, 7); got != 0 {
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
		if got := float64(db.Reserved(topology.LinkID(l), 7)); got > float64(topo.Capacity(topology.LinkID(l)))+1e-6 {
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
		if got := db.Reserved(e, 7); got != 0 {
			t.Fatalf("old link %d still reserves %v", e, got)
		}
	}
	for _, e := range after.Path.Edges {
		if got := db.Reserved(e, 7); got != 600 {
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
		if got := db.Reserved(e, 7); got != 600 {
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
		p, ok := graph.ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
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
