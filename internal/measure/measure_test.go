package measure

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

func lineTopo(t *testing.T, cap unit.Bandwidth) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder("line")
	b.AddLink("A", "B", cap, 10*unit.Millisecond)
	b.AddLink("B", "C", cap, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func mustTruth(t *testing.T, topo *topology.Topology, aggs []traffic.Aggregate) *traffic.Matrix {
	t.Helper()
	m, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The headline behaviour: with a non-default true demand on an
// uncongested path, the estimator recovers the true inflection point,
// not the class default.
func TestPeakInferenceUncongested(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	// True bulk demand is 120 kbps/flow, not the 200 kbps class default.
	fn, err := utility.Bulk().WithPeakBandwidth(120 * unit.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: fn},
	})
	sim, err := sdnsim.New(topo, truth, sdnsim.Config{Seed: 3, Epoch: 10 * time.Second, DemandJitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(KeysFromMatrix(truth))
	for i := 0; i < 20; i++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Observe(stats); err != nil {
			t.Fatal(err)
		}
	}
	peak, ok := peakEstimate(est, 0)
	if !ok {
		t.Fatal("no peak inferred on an uncongested path")
	}
	if float64(peak) < 110 || float64(peak) > 130 {
		t.Errorf("inferred peak = %v kbps, want ~120 (true demand)", float64(peak))
	}
	mat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	got := mat.Aggregate(0)
	if got.Flows != 10 {
		t.Errorf("flows = %d, want 10", got.Flows)
	}
	if p := float64(got.DemandPerFlow()); p < 110 || p > 130 {
		t.Errorf("matrix demand = %v kbps, want ~120", p)
	}
	if est.CongestedFraction(0) != 0 {
		t.Errorf("congested fraction = %v, want 0", est.CongestedFraction(0))
	}
}

// On a congested path the measured rate understates demand: no peak may
// be inferred, and the fallback keeps the class default.
func TestNoPeakInferenceWhenCongested(t *testing.T) {
	topo := lineTopo(t, 1*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 20, Fn: utility.Bulk()}, // 4 Mbps demand
	})
	sim, _ := sdnsim.New(topo, truth, sdnsim.Config{Seed: 3})
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(KeysFromMatrix(truth))
	for i := 0; i < 5; i++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Observe(stats); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := peakEstimate(est, 0); ok {
		t.Error("peak inferred from congested-only observations")
	}
	if est.CongestedFraction(0) != 1 {
		t.Errorf("congested fraction = %v, want 1", est.CongestedFraction(0))
	}
	mat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	// Fallback: class default (200 kbps) — measured 50 kbps is below it.
	if got := mat.Aggregate(0).DemandPerFlow(); got != 200*unit.Kbps {
		t.Errorf("fallback demand = %v, want class default 200kbps", got)
	}
}

func TestObserveValidation(t *testing.T) {
	est := NewEstimator([]AggregateKey{{Src: 0, Dst: 1, Class: utility.ClassBulk}})
	if err := est.Observe(nil); err == nil {
		t.Error("nil stats accepted")
	}
	if err := est.Observe(&sdnsim.EpochStats{Duration: 0}); err == nil {
		t.Error("zero-duration epoch accepted")
	}
	bad := &sdnsim.EpochStats{
		Duration: time.Second,
		Rules:    []sdnsim.RuleCounter{{Agg: 99, Flows: 1}},
	}
	if err := est.Observe(bad); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestMatrixRequiresObservations(t *testing.T) {
	topo := lineTopo(t, 1*unit.Mbps)
	est := NewEstimator([]AggregateKey{{Src: 0, Dst: 1, Class: utility.ClassBulk}})
	if _, err := est.Matrix(topo); err == nil {
		t.Error("matrix built with zero observations")
	}
}

func TestEWMAConvergesUnderJitter(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassRealTime, Flows: 50, Fn: utility.RealTime()},
	})
	sim, _ := sdnsim.New(topo, truth, sdnsim.Config{Seed: 9, DemandJitter: 0.2})
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(KeysFromMatrix(truth))
	for i := 0; i < 50; i++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Observe(stats); err != nil {
			t.Fatal(err)
		}
	}
	peak, ok := peakEstimate(est, 0)
	if !ok {
		t.Fatal("no peak inferred")
	}
	// True peak 50 kbps, jitter +-20%: EWMA should land near 50.
	if math.Abs(float64(peak)-50) > 10 {
		t.Errorf("peak = %v, want ~50 kbps despite jitter", float64(peak))
	}
}

// Full closed loop on a small instance: estimate the TM from counters,
// optimize on the estimate, install, and verify the *true* utility
// improves over shortest-path routing.
func TestClosedLoopImprovesTrueUtility(t *testing.T) {
	b := topology.NewBuilder("loop")
	b.AddLink("A", "B", 2*unit.Mbps, 10*unit.Millisecond)
	b.AddLink("A", "C", 100*unit.Mbps, 15*unit.Millisecond)
	b.AddLink("C", "B", 100*unit.Mbps, 15*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
	})
	sim, err := sdnsim.New(topo, truth, sdnsim.Config{Seed: 4, DemandJitter: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(KeysFromMatrix(truth))
	var before float64
	for i := 0; i < 5; i++ {
		stats, err := sim.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		before = stats.TrueUtility
		if err := est.Observe(stats); err != nil {
			t.Fatal(err)
		}
	}
	estMat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	model, err := flowmodel.New(topo, estMat)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Install(sol.Bundles); err != nil {
		t.Fatal(err)
	}
	stats, err := sim.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrueUtility <= before {
		t.Errorf("closed loop did not improve: %v -> %v", before, stats.TrueUtility)
	}
}

// peakEstimate returns the inferred per-flow demand of an aggregate and
// whether any uncongested observation informed it.
func peakEstimate(e *Estimator, id traffic.AggregateID) (unit.Bandwidth, bool) {
	st := e.state[id]
	return unit.Bandwidth(st.peakKbps), st.havePeak
}

func TestKeysFromMatrix(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 3, Fn: utility.Bulk()},
		{Src: 2, Dst: 1, Class: utility.ClassRealTime, Flows: 5, Fn: utility.RealTime()},
	})
	keys := KeysFromMatrix(truth)
	want := []AggregateKey{
		{Src: 0, Dst: 2, Class: utility.ClassBulk},
		{Src: 2, Dst: 1, Class: utility.ClassRealTime},
	}
	if len(keys) != len(want) || keys[0] != want[0] || keys[1] != want[1] {
		t.Fatalf("keys = %+v, want %+v", keys, want)
	}
	est := NewEstimator(keys)
	if est.NumAggregates() != 2 {
		t.Fatalf("NumAggregates = %d, want 2", est.NumAggregates())
	}
	// The estimator keeps its own copy of the keys.
	keys[0].Dst = 1
	if err := est.Observe(&sdnsim.EpochStats{Duration: time.Second, Rules: []sdnsim.RuleCounter{
		{Agg: 0, Flows: 1, Bytes: 125}, {Agg: 1, Flows: 1, Bytes: 125},
	}}); err != nil {
		t.Fatal(err)
	}
	mat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range want {
		a := mat.Aggregate(traffic.AggregateID(i))
		if a.Src != k.Src || a.Dst != k.Dst || a.Class != k.Class {
			t.Errorf("estimated aggregate %d = %d->%d %v, want %+v", i, a.Src, a.Dst, a.Class, k)
		}
	}
}

// TestObserveFoldsCounters feeds hand-built counters: an aggregate's
// rules are summed, uncongested epochs fold into the EWMA peak,
// congested ones only count, and rules without flows are not an
// observation.
func TestObserveFoldsCounters(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	est := NewEstimator([]AggregateKey{
		{Src: 0, Dst: 2, Class: utility.ClassBulk},
		{Src: 2, Dst: 0, Class: utility.ClassBulk},
	})
	// bytes for n flows at k kbps over a 1 s epoch
	bytes := func(n int, k float64) float64 { return float64(n) * k * 125 }
	epochs := [][]sdnsim.RuleCounter{
		{
			{Agg: 0, Flows: 3, Bytes: bytes(3, 100)},
			{Agg: 0, Flows: 1, Bytes: bytes(1, 100)},
			{Agg: 1, Flows: 2, Bytes: bytes(2, 50), Congested: true},
		},
		{
			{Agg: 0, Flows: 4, Bytes: bytes(4, 200)},
			{Agg: 1, Flows: 2, Bytes: bytes(2, 300)},
		},
		{
			{Agg: 0, Flows: 0, Bytes: bytes(1, 900)},
		},
	}
	for i, rules := range epochs {
		if err := est.Observe(&sdnsim.EpochStats{Epoch: i, Duration: time.Second, Rules: rules}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		id        traffic.AggregateID
		peak      float64
		congested float64
	}{
		{0, 0.7*100 + 0.3*200, 0}, // EWMA with the default Alpha 0.3
		{1, 300, 0.5},             // the congested epoch's 50 kbps is no peak
	} {
		peak, ok := peakEstimate(est, c.id)
		if !ok || math.Abs(float64(peak)-c.peak) > 1e-9 {
			t.Errorf("aggregate %d peak %v (ok %v), want %v", c.id, float64(peak), ok, c.peak)
		}
		if got := est.CongestedFraction(c.id); got != c.congested {
			t.Errorf("aggregate %d congested fraction %v, want %v", c.id, got, c.congested)
		}
	}
	mat, err := est.Matrix(topo)
	if err != nil {
		t.Fatal(err)
	}
	if a := mat.Aggregate(0); a.Flows != 4 || math.Abs(float64(a.DemandPerFlow())-130) > 1e-6 {
		t.Errorf("aggregate 0 estimated as %d flows at %v, want 4 at 130kbps", a.Flows, a.DemandPerFlow())
	}
}

// TestResetMatchesNewEstimator holds one Estimator, Reset onto every
// epoch's matrix, to a new one per epoch over the same counters: across
// networks of changing size and congestion, and an epoch whose matrix
// lost aggregates, the estimated matrices and congested fractions must
// be equal.
func TestResetMatchesNewEstimator(t *testing.T) {
	var kept Estimator // the zero Estimator is ready for Reset
	for e := 0; e < 20; e++ {
		topo, err := topology.Ring(4+e%3, e%2, unit.Bandwidth(200+300*(e%4))*unit.Kbps, int64(e))
		if err != nil {
			t.Fatal(err)
		}
		truth, err := traffic.Generate(topo, traffic.DefaultGenConfig(int64(e)))
		if err != nil {
			t.Fatal(err)
		}
		if e%5 == 4 { // fewer aggregates than the epoch before
			if truth, err = truth.Subset(func(a traffic.Aggregate) bool { return a.ID%2 == 0 }); err != nil {
				t.Fatal(err)
			}
		}
		sim, err := sdnsim.New(topo, truth, sdnsim.Config{Seed: int64(e), DemandJitter: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.InstallShortestPaths(); err != nil {
			t.Fatal(err)
		}
		fresh := NewEstimator(KeysFromMatrix(truth))
		kept.Reset(truth)
		for m := 0; m < 3; m++ {
			stats, err := sim.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			for _, est := range []*Estimator{fresh, &kept} {
				if err := est.Observe(stats); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := fresh.Matrix(topo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := kept.Matrix(topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Aggregates(), want.Aggregates()) {
			t.Fatalf("epoch %d: reset estimator's matrix differs from a new one's", e)
		}
		for i := 0; i < truth.NumAggregates(); i++ {
			id := traffic.AggregateID(i)
			if g, w := kept.CongestedFraction(id), fresh.CongestedFraction(id); g != w {
				t.Fatalf("epoch %d aggregate %d: congested fraction %v, want %v", e, i, g, w)
			}
		}
	}
}
