package fubar

// Facade tests: exercise the public API end to end the way a downstream
// user would. Where the facade leaves a step to the internal packages (it
// re-exports only what cmd/, examples/ and benchmark/ import), the test
// takes that step through the internal package.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fubar/internal/core"
	"fubar/internal/experiment"
	"fubar/internal/metrics"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/topology"
	"fubar/internal/utility"
)

// optimizeOnce runs one cold optimization through a throwaway Session.
func optimizeOnce(t *testing.T, topo *Topology, mat *Matrix) *Solution {
	t.Helper()
	s, err := NewSession(topo, mat)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	sol, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return sol
}

func TestFacadeUnits(t *testing.T) {
	b, err := ParseBandwidth("2.5Mbps")
	if err != nil || b != 2500*Kbps {
		t.Errorf("ParseBandwidth = %v, %v", b, err)
	}
	d, err := ParseDelay("150ms")
	if err != nil || d != 150*Millisecond {
		t.Errorf("ParseDelay = %v, %v", d, err)
	}
	if Second != 1000*Millisecond || Gbps != 1000*Mbps {
		t.Error("unit constants inconsistent")
	}
}

func TestFacadeTopologyBuilders(t *testing.T) {
	he, err := HurricaneElectric(100 * Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if he.NumNodes() != 31 || he.NumBidirectionalLinks() != 56 {
		t.Errorf("HE shape: %s", he.Summary())
	}
	ring, err := RingTopology(8, 3, 10*Mbps, 1)
	if err != nil || ring.NumNodes() != 8 {
		t.Errorf("RingTopology: %v %v", ring, err)
	}
	grid, err := GridTopology(3, 3, 10*Mbps)
	if err != nil || grid.NumNodes() != 9 {
		t.Errorf("GridTopology: %v %v", grid, err)
	}
	wax, err := WaxmanTopology(10, 0.7, 0.4, 10*Mbps, 40*Millisecond, 2)
	if err != nil || wax.NumNodes() != 10 {
		t.Errorf("WaxmanTopology: %v %v", wax, err)
	}
	db, err := DumbbellTopology(2, 10*Mbps, 1*Mbps)
	if err != nil || db.NumNodes() != 6 {
		t.Errorf("DumbbellTopology: %v %v", db, err)
	}

	// Custom build + round trip through the text format.
	tb := topology.NewBuilder("custom")
	tb.AddLink("X", "Y", 10*Mbps, 3*Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTopology(&buf, topo); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTopology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 2 {
		t.Errorf("round trip: %s", back.Summary())
	}
}

func TestFacadeOptimizeEndToEnd(t *testing.T) {
	topo, err := RingTopology(8, 4, 2*Mbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(9)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.LargeFlows = [2]int{1, 2}
	mat, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traced int
	s, err := NewSession(topo, mat, WithObserver(func(Snapshot) { traced++ }))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility < sol.InitialUtility {
		t.Errorf("utility %v below initial %v", sol.Utility, sol.InitialUtility)
	}
	if traced == 0 {
		t.Error("trace callback never fired")
	}
	switch sol.Stop {
	case StopNoCongestion, StopLocalOptimum, StopMaxSteps, StopDeadline:
	default:
		t.Errorf("unknown stop reason %v", sol.Stop)
	}

	// Baselines through the facade, on the session's own model.
	sp, err := ShortestPathRouting(s.Model(), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Utility != sol.InitialUtility {
		t.Errorf("facade SP %v != solution initial %v", sp.Utility, sol.InitialUtility)
	}
	ub, err := UpperBound(topo, mat, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Utility > ub.Mean+1e-9 {
		t.Errorf("solution %v above upper bound %v", sol.Utility, ub.Mean)
	}
}

func TestFacadeExperiment(t *testing.T) {
	topo, err := RingTopology(8, 4, 2*Mbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	tc := DefaultGenConfig(9)
	tc.RealTimeFlows = [2]int{2, 8}
	tc.BulkFlows = [2]int{1, 4}
	tc.LargeFlows = [2]int{1, 2}
	cfg := ExperimentConfig{Topology: topo, Seed: 9, Traffic: &tc}
	r, err := experiment.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Utility.Len() == 0 {
		t.Error("no utility series")
	}
	if len(r.FlowDelayMs) == 0 {
		t.Error("no delay samples")
	}
	cdf := NewCDF(r.FlowDelayMs)
	if cdf.Quantile(0.5) <= 0 {
		t.Error("nonpositive median delay")
	}
	s := metrics.Summarize(r.FlowDelayMs)
	if s.N != len(r.FlowDelayMs) {
		t.Error("summary count mismatch")
	}
	// Preset configs exist and carry the right capacities.
	if Provisioned(1).Capacity != 100*Mbps {
		t.Error("Provisioned capacity")
	}
	if Underprovisioned(1).Capacity != 75*Mbps {
		t.Error("Underprovisioned capacity")
	}
	if Prioritized(1).LargeWeight != 8 {
		t.Error("Prioritized weight")
	}
	if RelaxedDelay(1).DelayScale != 2 {
		t.Error("RelaxedDelay scale")
	}
}

func TestFacadeSDNLoop(t *testing.T) {
	topo, err := RingTopology(8, 4, 2*Mbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGenConfig(9)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.LargeFlows = [2]int{1, 2}
	truth, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(topo, truth, SimConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(EstimatorKeys(truth))
	for i := 0; i < 3; i++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Observe(stats); err != nil {
			t.Fatal(err)
		}
	}
	estMat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	if estMat.NumAggregates() != truth.NumAggregates() {
		t.Errorf("estimated %d aggregates, truth has %d",
			estMat.NumAggregates(), truth.NumAggregates())
	}
	sol := optimizeOnce(t, topo, estMat)
	if err := sim.Install(sol.Bundles); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunEpoch(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNewMatrixAndBundle(t *testing.T) {
	tb := topology.NewBuilder("two")
	tb.AddLink("A", "B", 10*Mbps, 5*Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := NewMatrix(topo, []Aggregate{
		{Src: 0, Dst: 1, Class: ClassBulk, Flows: 3, Fn: utility.Bulk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mat.TotalFlows() != 3 {
		t.Error("TotalFlows")
	}
	sol := optimizeOnce(t, topo, mat)
	if sol.Utility != 1 {
		t.Errorf("trivial instance utility = %v", sol.Utility)
	}
	if !strings.Contains(mat.Summary(), "bulk") {
		t.Errorf("Summary = %q", mat.Summary())
	}
}

// testRingInstance builds a small congested instance for the extension
// facade tests.
func testRingInstance(t *testing.T, seed int64) (*Topology, *Matrix) {
	t.Helper()
	topo, err := RingTopology(8, 4, 800*Kbps, seed)
	if err != nil {
		t.Fatalf("RingTopology: %v", err)
	}
	cfg := DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := GenerateTraffic(topo, cfg)
	if err != nil {
		t.Fatalf("GenerateTraffic: %v", err)
	}
	return topo, mat
}

func TestFacadeAnneal(t *testing.T) {
	topo, mat := testRingInstance(t, 9)
	s, err := NewSession(topo, mat)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	sol, err := s.Anneal(context.Background(), AnnealOptions{Seed: 9, MaxIterations: 3000})
	if err != nil {
		t.Fatalf("Anneal: %v", err)
	}
	if sol.Utility < sol.InitialUtility {
		t.Fatalf("annealing lost utility: %.4f -> %.4f", sol.InitialUtility, sol.Utility)
	}
}

func TestFacadeClassifier(t *testing.T) {
	cl, err := NewClassifier(ClassifierOverride{
		DstName: "lon", Class: ClassRealTime,
	})
	if err != nil {
		t.Fatalf("NewClassifier: %v", err)
	}
	d := cl.Classify(FlowFeatures{DstName: "lon"})
	if d.Class != ClassRealTime {
		t.Fatalf("override not applied: %+v", d)
	}
	f := FlowFeaturesFromRates([]float64{100, 110, 90}, 2, 0)
	if f.MeanRatePerFlow <= 0 {
		t.Fatalf("features not derived: %+v", f)
	}
}

func TestFacadeDynamicsAndValidation(t *testing.T) {
	topo, mat := testRingInstance(t, 13)
	sol := optimizeOnce(t, topo, mat)
	sim, err := SimulateDynamics(topo, mat, sol.Bundles, 0)
	if err != nil {
		t.Fatalf("SimulateDynamics: %v", err)
	}
	val, err := ValidateModel(sol.Bundles, sol.Result, sim)
	if err != nil {
		t.Fatalf("ValidateModel: %v", err)
	}
	if val.Correlation < 0.5 {
		t.Fatalf("implausibly low correlation %.3f", val.Correlation)
	}
}

// TestFacadeControlPlane drives the control plane the only way the facade
// offers: a closed-loop replay over a replica set, through a kill storm.
func TestFacadeControlPlane(t *testing.T) {
	topo, mat := testRingInstance(t, 17)
	s, err := NewSession(topo, mat, WithReplicas(3))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	storm, err := ScenarioByName("ctrlstorm", 17, 4)
	if err != nil {
		t.Fatalf("ScenarioByName: %v", err)
	}
	var epochs, flowMods, failovers int
	for er, err := range s.ReplayClosedLoop(context.Background(), storm) {
		if err != nil {
			t.Fatalf("ReplayClosedLoop: %v", err)
		}
		if er.InstallAcks != er.WireFlowMods {
			t.Fatalf("epoch %d: %d acks for %d wire FlowMods", er.Epoch, er.InstallAcks, er.WireFlowMods)
		}
		if er.TrueUtility <= 0 {
			t.Fatalf("epoch %d: true utility %v", er.Epoch, er.TrueUtility)
		}
		epochs++
		flowMods += er.WireFlowMods
		failovers += er.Failovers
	}
	if epochs != 4 || flowMods == 0 || failovers == 0 {
		t.Fatalf("%d epochs, %d wire FlowMods, %d failovers: want 4, > 0, > 0", epochs, flowMods, failovers)
	}
}

func TestFacadeMPLS(t *testing.T) {
	topo, mat := testRingInstance(t, 21)
	sol := optimizeOnce(t, topo, mat)
	db, err := NewLSPDB(topo)
	if err != nil {
		t.Fatalf("NewLSPDB: %v", err)
	}
	stats, err := SyncToMPLS(db, mat, sol.Bundles, sol.Result.BundleRate, "fubar", 7, 7)
	if err != nil {
		t.Fatalf("SyncToMPLS: %v", err)
	}
	if stats.Admitted == 0 {
		t.Fatal("no tunnels admitted")
	}
	if len(stats.Failed) != 0 {
		t.Fatalf("tunnels failed: %v", stats.Failed)
	}
	for l, u := range db.Utilization() {
		if u > 1+1e-6 {
			t.Fatalf("link %d over-reserved: %.4f", l, u)
		}
	}
}

func TestFacadeScenarioReplay(t *testing.T) {
	topo, mat := testRingInstance(t, 31)
	s, err := NewSession(topo, mat)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	sc := DiurnalScenario(3, 4, 0.3, 0.1)
	res, err := s.ReplayAll(context.Background(), sc)
	if err != nil {
		t.Fatalf("ReplayAll: %v", err)
	}
	if len(res.Epochs) != 4 || res.TotalSteps() == 0 {
		t.Fatalf("replay shape wrong: %+v", res)
	}
	for i, e := range res.Epochs {
		if e.Utility < e.StaleUtility-1e-9 {
			t.Fatalf("epoch %d lost utility: %+v", i, e)
		}
	}
	// Hand-written timeline (the event kinds are internal/scenario's).
	custom := Scenario{
		Name: "facade-events", Seed: 1, Epochs: 3,
		Events: []ScenarioEvent{
			{Epoch: 1, Kind: scenario.LinkFail, Link: 0},
			{Epoch: 2, Kind: scenario.LinkRecover, Link: 0},
		},
	}
	cres, err := s.ReplayAll(context.Background(), custom)
	if err != nil {
		t.Fatalf("custom replay: %v", err)
	}
	if cres.Epochs[1].FailedLinks != 1 || cres.Epochs[2].FailedLinks != 0 {
		t.Fatalf("failure timeline not reflected: %+v", cres.Epochs)
	}
	// Warm-start repair of a session solution around a forbidden link.
	sol, err := s.Optimize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	forb := pathgen.ForbidLinks(topo, 0)
	repaired, _, err := core.RepairWarmStart(topo, mat, sol.Bundles, Policy{ForbiddenLinks: forb}, 0)
	if err != nil {
		t.Fatalf("RepairWarmStart: %v", err)
	}
	for _, b := range repaired {
		for _, e := range b.Edges {
			if forb[e] {
				t.Fatalf("repaired bundle crosses forbidden link: %+v", b)
			}
		}
	}
}
