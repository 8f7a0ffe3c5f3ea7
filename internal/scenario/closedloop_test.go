package scenario

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// mixedScenario exercises demand and topology events in one closed-loop
// timeline.
func mixedScenario(seed int64) Scenario {
	return Scenario{
		Name: "mixed", Seed: seed, Epochs: 4,
		Events: []Event{
			{Epoch: 0, Kind: DemandScale, Factor: 0.9},
			{Epoch: 1, Kind: LinkFail, Link: 0},
			{Epoch: 1, Kind: DemandChurn, Factor: 0.2, Fraction: 0.4},
			{Epoch: 2, Kind: DemandScale, Factor: 1.2},
			{Epoch: 3, Kind: LinkRecover, Link: 0},
		},
	}
}

// TestClosedLoopDeterminism extends the worker-invariance suite to the
// full loop: same seed ⇒ identical epoch table, counted FlowMods and
// install sequence at Workers ∈ {1, 4} — on the small ring every other
// closed-loop test replays and, outside -short, on the thinned HE-31
// instance (31 switches) with two shared-risk conduits declared. The
// ring's full-evaluation legs are internal/core's
// TestClosedLoopDeterminismOracle.
func TestClosedLoopDeterminism(t *testing.T) {
	type config struct {
		workers   int
		telemetry bool
	}
	type input struct {
		name    string
		topo    *topology.Topology
		mat     *traffic.Matrix
		sc      Scenario
		configs []config
	}
	ringTopo, ringMat := ringInstance(t, 13)
	inputs := []input{{"ring", ringTopo, ringMat, mixedScenario(21), []config{
		{1, false},
		{4, false},
		// Telemetry-instrumented loops must yield the bit-identical
		// epoch table and install sequence (ISSUE 7 acceptance).
		{1, true},
		{4, true},
	}}}
	if !testing.Short() {
		heTopo, heMat := heInstance(t)
		heTopo, err := heTopo.WithSRLGs([]topology.SRLG{
			{Name: "conduit-0", Links: []topology.LinkID{0, 2}},
			{Name: "conduit-1", Links: []topology.LinkID{4, 6}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if heMat, err = traffic.NewMatrix(heTopo, heMat.Aggregates()); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"he-31", heTopo, heMat, Diurnal(1, 4, 0.4, 0.15), []config{
			{1, false},
			{4, false},
		}})
	}
	for _, in := range inputs {
		var results []*Result
		for _, cfg := range in.configs {
			opts := Options{Core: core.Options{Workers: cfg.workers}}
			if cfg.telemetry {
				opts.Core.Telemetry = telemetry.New()
			}
			res, err := runClosedLoop(context.Background(), in.topo, in.mat, in.sc, opts)
			if err != nil {
				t.Fatalf("%s Workers=%d telemetry=%v: %v", in.name, cfg.workers, cfg.telemetry, err)
			}
			results = append(results, res)
		}
		for i, res := range results[1:] {
			if err := results[0].Equivalent(res); err != nil {
				t.Fatalf("%s config %d vs Workers=1: %v", in.name, i+1, err)
			}
		}
		res := results[0]
		t.Logf("%s: %d wire FlowMods, min MBB headroom %+.3f", in.name, res.TotalWireFlowMods(), res.MinMBBHeadroom())
		if !res.ClosedLoop {
			t.Fatalf("%s: ClosedLoop flag not set", in.name)
		}
		if len(res.Installs) != 2*in.sc.Epochs {
			t.Fatalf("%s: %d install records, want %d (repair + reopt per epoch)", in.name, len(res.Installs), 2*in.sc.Epochs)
		}
	}
}

// TestClosedLoopCountsWireFlowMods pins the counted-FlowMods semantics:
// every message is acked by the simulated switches (install() enforces
// controller count == fabric ledger), a quiescent epoch's repair push
// writes no messages at all, and a topology event forces real ones.
func TestClosedLoopCountsWireFlowMods(t *testing.T) {
	topo, mat := ringInstance(t, 5)
	sc := Scenario{
		Name: "quiet-then-fail", Seed: 3, Epochs: 4,
		Events: []Event{{Epoch: 2, Kind: LinkFail, Link: 0}},
	}
	res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core: core.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := topo.NumNodes()
	for _, e := range res.Epochs {
		if err := e.Check(); err != nil {
			t.Error(err)
		}
		if e.WireFlowMods > 2*nodes {
			t.Errorf("epoch %d: %d wire FlowMods exceeds two full pushes over %d switches", e.Epoch, e.WireFlowMods, nodes)
		}
	}
	byPhase := map[[2]any]InstallRecord{}
	for _, in := range res.Installs {
		byPhase[[2]any{in.Epoch, in.Phase}] = in
	}
	// Epoch 0 installs the initial routing: the repair push must reach
	// every switch owning rules.
	if in := byPhase[[2]any{0, "repair"}]; in.FlowMods == 0 {
		t.Error("epoch 0 repair push wrote no FlowMods")
	}
	// Epoch 1 has no topology event: the stale routing is still valid
	// whatever the demand did, so the repair push is message-free.
	if in := byPhase[[2]any{1, "repair"}]; in.FlowMods != 0 {
		t.Errorf("quiescent epoch 1 repair pushed %d FlowMods, want 0", in.FlowMods)
	}
	// The link failure must force repair messages.
	if in := byPhase[[2]any{2, "repair"}]; in.FlowMods == 0 {
		t.Error("link-failure epoch pushed no repair FlowMods")
	}
	if res.Epochs[2].RepairMovedFlows == 0 {
		t.Error("link failure repaired no flows")
	}
}

// TestEquivalentAndCheckNameWhatBroke plants one difference at a time into
// a second run of a closed-loop replay: Equivalent must name the epoch and
// field (or the install) it sits in, and ignore the wall clock; Check must
// refuse an epoch that counts an ack twice, in its total or on an install.
func TestEquivalentAndCheckNameWhatBroke(t *testing.T) {
	topo, mat := ringInstance(t, 5)
	replay := func() *Result {
		res, err := runClosedLoop(context.Background(), topo, mat, mixedScenario(3), Options{Core: core.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := replay()
	for _, c := range []struct {
		plant func(*Result)
		want  string
	}{
		{func(*Result) {}, ""}, // Elapsed differs, and only Elapsed
		{func(r *Result) { r.Epochs[2].Steps++ }, "replays differ at Epochs[2].Steps: "},
		{func(r *Result) { r.Epochs[1].Installs[1].Acks++ }, "replays differ at Epochs[1].Installs[1].Acks: "},
		{func(r *Result) { r.Installs[3].Acks++ }, "replays differ at Installs[3].Acks: "},
	} {
		b := replay()
		c.plant(b)
		if err := res.Equivalent(b); (err == nil) != (c.want == "") || !strings.HasPrefix(fmt.Sprint(err), c.want) {
			t.Errorf("Equivalent = %v, want %q", err, c.want)
		}
	}
	for _, e := range res.Epochs {
		if err := e.Check(); err != nil {
			t.Fatal(err)
		}
	}
	e := res.Epochs[1]
	e.InstallAcks++
	if e.Check() == nil {
		t.Error("Check passed an epoch with one ack counted twice in InstallAcks")
	}
	e = res.Epochs[1]
	e.Installs[0].Acks++
	if e.Check() == nil {
		t.Error("Check passed an install with one ack counted twice")
	}
}

// TestClosedLoopDeadlineBudget: an unmeetable per-epoch budget records
// misses on every congested epoch while the loop keeps publishing the
// best-so-far solution.
func TestClosedLoopDeadlineBudget(t *testing.T) {
	topo, mat := ringInstance(t, 7)
	sc := Diurnal(9, 3, 0.3, 0)
	res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core:   core.Options{Workers: 1},
		Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMissRate() == 0 {
		t.Fatal("1ns budget missed no deadlines (instance must be congested)")
	}
	for _, e := range res.Epochs {
		// Every epoch, a missed one too, still published a solution that
		// achieved something on the real network.
		if err := e.Check(); err != nil {
			t.Error(err)
		}
		if !e.DeadlineMiss {
			continue
		}
		if e.Steps != 0 {
			t.Errorf("epoch %d: missed the deadline after %d steps, want 0 with a 1ns budget", e.Epoch, e.Steps)
		}
		if e.StopReason != "deadline" {
			t.Errorf("epoch %d: stop %q, want deadline", e.Epoch, e.StopReason)
		}
	}
	// A generous budget misses nothing.
	res2, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core:   core.Options{Workers: 1},
		Budget: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DeadlineMissRate() != 0 {
		t.Fatalf("1h budget missed %v of deadlines", res2.DeadlineMissRate())
	}
}

// srlgRing builds the ring instance with two shared-risk groups
// declared on it.
func srlgRing(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, mat := ringInstance(t, seed)
	// Group the first two ring links as one conduit, the next two as
	// another (forward IDs; either direction names the physical link).
	st, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "conduit-a", Links: []topology.LinkID{0, 2}},
		{Name: "conduit-b", Links: []topology.LinkID{4, 6}},
	})
	if err != nil {
		t.Fatalf("WithSRLGs: %v", err)
	}
	// Rebind the matrix to the SRLG-bearing topology.
	aggs := mat.Aggregates()
	mat2, err := traffic.NewMatrix(st, aggs)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return st, mat2
}

// TestClosedLoopSRLGAndMaintenance drives correlated failures and a
// maintenance window through the full loop.
func TestClosedLoopSRLGAndMaintenance(t *testing.T) {
	topo, mat := srlgRing(t, 11)
	sc := Scenario{
		Name: "srlg-maint", Seed: 4, Epochs: 6,
		Events: []Event{
			{Epoch: 1, Kind: SRLGFail, Group: "conduit-a"},
			// A random drainable link: the picker only chooses links whose
			// loss keeps the topology connected given what is already down.
			{Epoch: 2, Kind: MaintenanceStart, Link: -1},
			{Epoch: 3, Kind: SRLGRecover, Group: "conduit-a"},
			{Epoch: 4, Kind: MaintenanceEnd, Link: -1},
		},
	}
	res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wantFailed := []int{0, 2, 2, 0, 0, 0}
	wantMaint := []int{0, 0, 1, 1, 0, 0}
	for i, e := range res.Epochs {
		if e.FailedLinks != wantFailed[i] {
			t.Errorf("epoch %d: FailedLinks = %d, want %d (%v)", i, e.FailedLinks, wantFailed[i], e.Events)
		}
		if e.MaintenanceLinks != wantMaint[i] {
			t.Errorf("epoch %d: MaintenanceLinks = %d, want %d (%v)", i, e.MaintenanceLinks, wantMaint[i], e.Events)
		}
	}
	if res.Epochs[1].RepairMovedFlows == 0 {
		t.Error("SRLG failure (two ring links) repaired no flows")
	}
	if res.Epochs[1].WireFlowMods == 0 {
		t.Error("SRLG failure pushed no wire FlowMods")
	}
	if res.Epochs[2].WireFlowMods == 0 {
		t.Error("maintenance drain pushed no wire FlowMods")
	}
	// After everything recovers the loop must be healthy again.
	last := res.Epochs[len(res.Epochs)-1]
	if last.TrueUtility < res.Epochs[1].TrueUtility {
		t.Errorf("recovered utility %.4f below outage utility %.4f", last.TrueUtility, res.Epochs[1].TrueUtility)
	}
}

// TestScenarioSRLGEventsPlainReplay covers the SRLG/maintenance kinds
// on the bare-optimizer replay path too, including random group picks.
func TestScenarioSRLGEventsPlainReplay(t *testing.T) {
	topo, mat := srlgRing(t, 15)
	sc := Scenario{
		Name: "srlg-random", Seed: 8, Epochs: 5,
		Events: []Event{
			{Epoch: 1, Kind: SRLGFail},                   // random group
			{Epoch: 2, Kind: MaintenanceStart, Link: -1}, // random drainable link
			{Epoch: 3, Kind: SRLGRecover},                // random downed group
			{Epoch: 4, Kind: MaintenanceEnd, Link: -1},
		},
	}
	a, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(context.Background(), topo, mat, sc, Options{Core: core.Options{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Equivalent(b); err != nil {
		t.Fatalf("SRLG replay, Workers 1 vs 2: %v", err)
	}
	if a.Epochs[1].FailedLinks != 2 {
		t.Errorf("SRLG failure downed %d links, want 2", a.Epochs[1].FailedLinks)
	}
	if a.Epochs[3].FailedLinks != 0 {
		t.Errorf("SRLG recovery left %d links down", a.Epochs[3].FailedLinks)
	}
	if a.Epochs[2].MaintenanceLinks != 1 || a.Epochs[4].MaintenanceLinks != 0 {
		t.Errorf("maintenance trajectory wrong: %d then %d", a.Epochs[2].MaintenanceLinks, a.Epochs[4].MaintenanceLinks)
	}

	// Undeclared groups are a validation error; a topology without SRLGs
	// turns random SRLG events into no-ops.
	bad := Scenario{Epochs: 1, Events: []Event{{Kind: SRLGFail, Group: "nope"}}}
	if _, err := run(context.Background(), topo, mat, bad, Options{}); err == nil {
		t.Error("undeclared SRLG accepted")
	}
	plainTopo, plainMat := ringInstance(t, 15)
	noop := Scenario{Name: "noop", Seed: 1, Epochs: 2, Events: []Event{{Epoch: 1, Kind: SRLGFail}}}
	rn, err := run(context.Background(), plainTopo, plainMat, noop, Options{Core: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rn.Epochs[1].FailedLinks != 0 {
		t.Error("SRLG event on an SRLG-free topology failed links")
	}
}
