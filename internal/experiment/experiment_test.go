package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// ringCfg builds a small, fast instance.
func ringCfg(t testing.TB, capacity unit.Bandwidth) Config {
	t.Helper()
	topo, err := topology.Ring(8, 4, capacity, 3)
	if err != nil {
		t.Fatal(err)
	}
	tc := traffic.DefaultGenConfig(5)
	tc.RealTimeFlows = [2]int{2, 8}
	tc.BulkFlows = [2]int{1, 4}
	tc.LargeFlows = [2]int{1, 2}
	return Config{Topology: topo, Seed: 5, Traffic: &tc}
}

func TestPresetConfigs(t *testing.T) {
	if Provisioned(3).Capacity != 100*unit.Mbps || Provisioned(3).Seed != 3 {
		t.Error("Provisioned preset wrong")
	}
	if Underprovisioned(3).Capacity != 75*unit.Mbps {
		t.Error("Underprovisioned preset wrong")
	}
	if Prioritized(3).LargeWeight != 8 {
		t.Error("Prioritized preset wrong")
	}
	if RelaxedDelay(3).DelayScale != 2 {
		t.Error("RelaxedDelay preset wrong")
	}
}

func TestRunProducesAllSeries(t *testing.T) {
	r, err := Run(context.Background(), ringCfg(t, 2000*unit.Kbps))
	if err != nil {
		t.Fatal(err)
	}
	if r.Utility.Len() < 2 {
		t.Errorf("utility series has %d samples", r.Utility.Len())
	}
	if r.ActualUtilization.Len() != r.Utility.Len() ||
		r.DemandedUtilization.Len() != r.Utility.Len() {
		t.Error("series lengths differ")
	}
	if r.LargeUtility.Len() == 0 {
		t.Error("no large-flow series (instance has large aggregates)")
	}
	first := r.Utility.Samples()[0]
	if first.V != r.ShortestPath {
		t.Errorf("series starts at %v, shortest-path is %v", first.V, r.ShortestPath)
	}
	last, _ := r.Utility.Last()
	if last.V != r.Solution.Utility {
		t.Errorf("series ends at %v, solution is %v", last.V, r.Solution.Utility)
	}
	if r.UpperBound < r.Solution.Utility-1e-9 {
		t.Errorf("upper bound %v below solution %v", r.UpperBound, r.Solution.Utility)
	}
	if len(r.FlowDelayMs) == 0 {
		t.Error("no per-flow delays")
	}
	// Flow delay samples count backbone flows only (self-pairs excluded).
	want := 0
	for _, a := range r.Matrix.Aggregates() {
		if !a.IsSelfPair() {
			want += a.Flows
		}
	}
	if len(r.FlowDelayMs) != want {
		t.Errorf("delay samples = %d, want %d backbone flows", len(r.FlowDelayMs), want)
	}
}

func TestLargeWeightApplied(t *testing.T) {
	cfg := ringCfg(t, 1500*unit.Kbps)
	cfg.LargeWeight = 8
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range r.Matrix.Aggregates() {
		if a.Class == utility.ClassLargeFile {
			found = true
			if a.Weight != 8 {
				t.Errorf("large aggregate weight = %v, want 8", a.Weight)
			}
		} else if a.Weight != 1 {
			t.Errorf("small aggregate weight = %v, want 1", a.Weight)
		}
	}
	if !found {
		t.Fatal("instance has no large aggregates")
	}
}

func TestDelayScaleApplied(t *testing.T) {
	cfg := ringCfg(t, 1500*unit.Kbps)
	cfg.DelayScale = 2
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range r.Matrix.Aggregates() {
		if a.Class == utility.ClassLargeFile {
			continue
		}
		// Real-time cliff moved from 100ms out to 200ms.
		if a.Class == utility.ClassRealTime && a.Fn.EvalDelay(150*unit.Millisecond) <= 0 {
			t.Fatal("delay scale not applied to real-time aggregate")
		}
	}
}

func TestUserTraceStillFires(t *testing.T) {
	cfg := ringCfg(t, 2000*unit.Kbps)
	calls := 0
	cfg.Options.Trace = func(core.Snapshot) { calls++ }
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("user trace swallowed by the experiment harness")
	}
}

func TestRepeatability(t *testing.T) {
	cfg := ringCfg(t, 2000*unit.Kbps)
	rep, err := Repeatability(context.Background(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 4 || rep.Fubar.Len() != 4 || rep.ShortestPath.Len() != 4 || rep.UpperBound.Len() != 4 {
		t.Errorf("repeatability shape wrong: %+v", rep)
	}
	if _, err := Repeatability(context.Background(), cfg, 0); err == nil {
		t.Error("zero runs accepted")
	}
	// Distinct seeds produce at least two distinct outcomes (overwhelmingly
	// likely for random matrices).
	vals := rep.Fubar.Values()
	allEqual := true
	for _, v := range vals[1:] {
		if v != vals[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("all seeds produced identical utility (suspicious)")
	}
}

// TestRepeatabilityReportsTheFirstSeedsError: when runs fail, the error
// returned is the lowest seed's, whichever run failed first in time.
func TestRepeatabilityReportsTheFirstSeedsError(t *testing.T) {
	cfg := ringCfg(t, 2000*unit.Kbps)
	cfg.Options.Workers = 3
	cfg.Options.Policy.ForbiddenLinks = make([]bool, cfg.Topology.NumLinks()+1) // refused by every run
	rep, err := Repeatability(context.Background(), cfg, 6)
	if err == nil {
		t.Fatalf("an invalid policy ran: %+v", rep)
	}
	if want := fmt.Sprintf("experiment: seed %d: ", cfg.Seed); !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q, want one starting %q", err, want)
	}
}

func TestRuntimeTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runtime table")
	}
	// Use a tiny deadline: this only checks plumbing, not convergence.
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	rows, err := RuntimeTable(ctx, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Elapsed <= 0 || r.Utility <= 0 {
			t.Errorf("row %q has zero fields: %+v", r.Name, r)
		}
	}
}

func TestRunWithCapacityOverrideOnCustomTopology(t *testing.T) {
	cfg := ringCfg(t, 2000*unit.Kbps)
	cfg.Capacity = 1000 * unit.Kbps // override the ring's 2 Mbps
	r, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range r.Topology.Links() {
		if l.Capacity != 1000*unit.Kbps {
			t.Fatalf("capacity override not applied: %v", l.Capacity)
		}
	}
}
