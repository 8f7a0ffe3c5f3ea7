package sdnsim

import (
	"fmt"
	"math"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
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

func TestNewValidation(t *testing.T) {
	topo := lineTopo(t, 10*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk()},
	})
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Error("nil args accepted")
	}
	other := lineTopo(t, 20*unit.Mbps)
	if _, err := New(other, truth, Config{}); err == nil {
		t.Error("cross-topology matrix accepted")
	}
	if _, err := New(topo, truth, Config{DemandJitter: 1.5}); err == nil {
		t.Error("jitter >= 1 accepted")
	}
	if _, err := New(topo, truth, Config{Seed: 1}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunEpochRequiresInstall(t *testing.T) {
	topo := lineTopo(t, 10*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk()},
	})
	s, err := New(topo, truth, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunEpoch(); err == nil {
		t.Error("RunEpoch before Install succeeded")
	}
}

func TestInstallValidatesCoverage(t *testing.T) {
	topo := lineTopo(t, 10*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk()},
	})
	s, _ := New(topo, truth, Config{Seed: 1})
	p, _ := new(graph.Searcher).ShortestPath(topo.Graph(), 0, 2, graph.Constraints{})
	// Wrong flow count.
	if err := s.Install([]flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 3, p)}); err == nil {
		t.Error("partial coverage accepted")
	}
	// Unknown aggregate.
	if err := s.Install([]flowmodel.Bundle{{Agg: 7, Flows: 4}}); err == nil {
		t.Error("unknown aggregate accepted")
	}
	if err := s.Install([]flowmodel.Bundle{flowmodel.NewBundle(topo, 0, 4, p)}); err != nil {
		t.Errorf("valid install rejected: %v", err)
	}
}

func TestEpochCountersUncongested(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()}, // 2 Mbps demand
	})
	s, _ := New(topo, truth, Config{Seed: 1, DemandJitter: 0.1})
	if err := s.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	stats, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 0 {
		t.Errorf("epoch = %d, want 0", stats.Epoch)
	}
	if len(stats.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(stats.Rules))
	}
	r := stats.Rules[0]
	if r.Congested {
		t.Error("uncongested network reported congested")
	}
	// Bytes ~ demand (2 Mbps +-10%) * 10s / 8 * 1000: 2.5 MB nominal.
	if stats.Duration != MeasurementInterval {
		t.Errorf("epoch duration = %v, want %v", stats.Duration, MeasurementInterval)
	}
	kbps := r.Bytes / 125 / MeasurementInterval.Seconds()
	if kbps < 1700 || kbps > 2300 {
		t.Errorf("measured rate = %v kbps, want ~2000 within jitter", kbps)
	}
	if stats.TrueUtility <= 0.9 {
		t.Errorf("true utility = %v, want ~1", stats.TrueUtility)
	}
	// Second epoch increments the counter.
	stats2, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Epoch != 1 {
		t.Errorf("epoch = %d, want 1", stats2.Epoch)
	}
}

func TestEpochDetectsCongestion(t *testing.T) {
	topo := lineTopo(t, 1*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 20, Fn: utility.Bulk()}, // 4 Mbps on 1 Mbps
	})
	s, _ := New(topo, truth, Config{Seed: 1})
	if err := s.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	stats, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rules[0].Congested {
		t.Error("congestion not reported")
	}
	congestedLinks := 0
	for _, c := range stats.LinkCongested {
		if c {
			congestedLinks++
		}
	}
	if congestedLinks == 0 {
		t.Error("no congested links flagged")
	}
	// Carried rate capped at capacity.
	kbps := stats.Rules[0].Bytes / 125 / stats.Duration.Seconds()
	if kbps > 1000*1.01 {
		t.Errorf("rate %v exceeds 1 Mbps capacity", kbps)
	}
}

func TestJitterIsDeterministicPerSeed(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	mk := func(seed int64) float64 {
		truth := mustTruth(t, topo, []traffic.Aggregate{
			{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
		})
		s, _ := New(topo, truth, Config{Seed: seed})
		if err := s.InstallShortestPaths(); err != nil {
			t.Fatal(err)
		}
		stats, err := s.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		return stats.Rules[0].Bytes
	}
	if mk(5) != mk(5) {
		t.Error("same seed, different counters")
	}
	if mk(5) == mk(6) {
		t.Error("different seeds, identical counters (suspicious)")
	}
}

func TestLinkBytesMatchRuleBytes(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 10, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassRealTime, Flows: 5, Fn: utility.RealTime()},
	})
	s, _ := New(topo, truth, Config{Seed: 2})
	if err := s.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	stats, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, topo.NumLinks())
	for _, r := range stats.Rules {
		for _, e := range r.Edges {
			want[e] += r.Bytes
		}
	}
	for l, w := range want {
		if math.Abs(stats.LinkBytes[l]-w) > 1e-6 {
			t.Errorf("link %d bytes %v != rules sum %v", l, stats.LinkBytes[l], w)
		}
	}
}

func TestSelfPairEpoch(t *testing.T) {
	topo := lineTopo(t, 100*unit.Mbps)
	truth := mustTruth(t, topo, []traffic.Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 3, Fn: utility.Bulk()},
	})
	s, _ := New(topo, truth, Config{Seed: 1})
	if err := s.InstallShortestPaths(); err != nil {
		t.Fatal(err)
	}
	stats, err := s.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TrueUtility != 1 {
		t.Errorf("self-pair utility = %v, want 1", stats.TrueUtility)
	}
}

// TestResetMatchesNew holds one Sim, re-pointed and re-seeded by Reset at
// every epoch of a changing network — ring sizes, chords, capacities,
// matrices and jitter settings (default, 0.3 and none) — to a fresh New
// per epoch: every EpochStats must print the same, floats to the last
// bit, and a re-pointed Sim must refuse to run before a routing is
// installed on it.
func TestResetMatchesNew(t *testing.T) {
	line := lineTopo(t, 10*unit.Mbps)
	kept, err := New(line, mustTruth(t, line, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 24; e++ {
		topo, err := topology.Ring(4+e%4, e%3, unit.Bandwidth(300+150*(e%5))*unit.Kbps, int64(e))
		if err != nil {
			t.Fatal(err)
		}
		truth, err := traffic.Generate(topo, traffic.DefaultGenConfig(int64(e)))
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: int64(e) * 7919, DemandJitter: []float64{0, 0.3, -1}[e%3]}
		fresh, err := New(topo, truth, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := kept.Reset(line, truth, cfg); err == nil {
			t.Fatal("Reset accepted a matrix of another topology")
		}
		if err := kept.Reset(topo, truth, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := kept.RunEpoch(); err == nil {
			t.Fatalf("epoch %d: a re-pointed Sim ran on the last network's routing", e)
		}
		for _, s := range []*Sim{fresh, kept} {
			if err := s.InstallShortestPaths(); err != nil {
				t.Fatal(err)
			}
		}
		for m := 0; m < 3; m++ {
			want, err := fresh.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			got, err := kept.RunEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
				t.Fatalf("epoch %d, measurement %d:\nreset %s\nnew   %s", e, m, g, w)
			}
		}
	}
}
