package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// rebindEpoch is one instance of a replay-like sequence.
type rebindEpoch struct {
	name   string
	topo   *topology.Topology
	aggs   []traffic.Aggregate
	policy pathgen.Policy
}

// rebindEpochs is a replay's worth of instance changes over the congested
// 8-node ring: arrivals (more aggregates than any arena has seen), a
// shared-risk group failing (two physical links forbidden and at zero
// capacity), departures with the links back, and a move to another graph
// with another link count.
func rebindEpochs(t *testing.T) []rebindEpoch {
	t.Helper()
	topo, mat, _ := propInstance(t, 5)
	_, extra, _ := propInstance(t, 6)
	base := mat.Aggregates()
	more := append(mat.Aggregates(), extra.Aggregates()[:12]...)

	down := []topology.LinkID{0, 6}
	caps := make([]unit.Bandwidth, topo.NumLinks())
	mask := pathgen.ForbidLinks(topo, down...)
	for i := range caps {
		if !mask[i] {
			caps[i] = topo.Capacity(topology.LinkID(i))
		}
	}
	failed, err := topo.WithCapacities(caps)
	if err != nil {
		t.Fatal(err)
	}
	other, err := topology.Ring(7, 2, 700*unit.Kbps, 11)
	if err != nil {
		t.Fatal(err)
	}
	var onOther []traffic.Aggregate
	for _, a := range base {
		if int(a.Src) < other.NumNodes() && int(a.Dst) < other.NumNodes() {
			onOther = append(onOther, a)
		}
	}
	return []rebindEpoch{
		{"start", topo, base, pathgen.Policy{}},
		{"arrivals", topo, more, pathgen.Policy{}},
		{"srlg-fail", failed, more, pathgen.Policy{ForbiddenLinks: mask}},
		{"departures", topo, base[:len(base)/2], pathgen.Policy{}},
		{"hop-bound", topo, base, pathgen.Policy{MaxHops: 4}},
		{"other-graph", other, onOther, pathgen.Policy{}},
		{"back", topo, more, pathgen.Policy{}},
	}
}

// model builds the epoch's model afresh (each side of a comparison gets its
// own, as each epoch of a replay does).
func (e rebindEpoch) model(t *testing.T) *flowmodel.Model {
	t.Helper()
	mat, err := traffic.NewMatrix(e.topo, e.aggs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(e.topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRebindMatchesFreshOptimizer: one optimizer re-bound from epoch to
// epoch repairs, runs and reports exactly as an optimizer built for each
// epoch alone — bundles, utility, steps, and the Delta and Base counters
// that say how it got there — whatever its arenas, marks, base and
// path memo held before. (A delta scratch sized once per arena used to
// index past its aggregate marks on the arrivals epoch, and a generator
// that searched "set 0" for its lowest-delay paths would have kept using
// the links the srlg-fail epoch forbids.)
func TestRebindMatchesFreshOptimizer(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 3} {
		for _, mode := range []DeltaMode{DeltaAuto, DeltaOff} {
			t.Run(fmt.Sprintf("workers-%d/delta-%v", workers, mode), func(t *testing.T) {
				var kept *Optimizer
				var installed []flowmodel.Bundle
				for _, ep := range rebindEpochs(t) {
					opts := Options{Workers: workers, DeltaEval: mode, Policy: ep.policy}
					var err error
					if kept == nil {
						kept, err = New(ep.model(t), opts)
					} else {
						err = kept.Rebind(ep.model(t), opts)
					}
					if err != nil {
						t.Fatalf("%s: %v", ep.name, err)
					}
					fresh, err := New(ep.model(t), opts)
					if err != nil {
						t.Fatalf("%s: %v", ep.name, err)
					}
					warm, stats, err := kept.RepairWarmStart(installed)
					if err != nil {
						t.Fatalf("%s: repair: %v", ep.name, err)
					}
					wantWarm, wantStats, err := RepairWarmStart(ep.topo, fresh.mat, installed, ep.policy, 0)
					if err != nil {
						t.Fatalf("%s: fresh repair: %v", ep.name, err)
					}
					if stats != wantStats || !reflect.DeepEqual(warm, wantWarm) {
						t.Fatalf("%s: repair on the kept generator differs: %+v vs %+v", ep.name, stats, wantStats)
					}
					got, err := kept.RunWarm(ctx, warm)
					if err != nil {
						t.Fatalf("%s: %v", ep.name, err)
					}
					want, err := fresh.RunWarm(ctx, wantWarm)
					if err != nil {
						t.Fatalf("%s: fresh: %v", ep.name, err)
					}
					if got.Utility != want.Utility || got.InitialUtility != want.InitialUtility ||
						got.Steps != want.Steps || got.Escalations != want.Escalations || got.Stop != want.Stop ||
						!reflect.DeepEqual(got.Bundles, want.Bundles) || !reflect.DeepEqual(got.Result, want.Result) {
						t.Fatalf("%s: re-bound run differs from a fresh optimizer's: utility %v vs %v, steps %d vs %d",
							ep.name, got.Utility, want.Utility, got.Steps, want.Steps)
					}
					if got.Delta != want.Delta || got.Base != want.Base {
						t.Fatalf("%s: evaluation path depends on history:\n kept  %+v %+v\n fresh %+v %+v",
							ep.name, got.Delta, got.Base, want.Delta, want.Base)
					}
					if got.Delta.Fallbacks != 0 {
						t.Errorf("%s: %d delta fallbacks", ep.name, got.Delta.Fallbacks)
					}
					if got.Steps == 0 {
						t.Errorf("%s: epoch committed nothing; the comparison proves little", ep.name)
					}
					installed = got.Bundles
				}
			})
		}
	}
}

// TestRebindRejectsBadInstance: a failed Rebind leaves the optimizer bound
// where it was and still running.
func TestRebindRejectsBadInstance(t *testing.T) {
	_, _, m := propInstance(t, 2)
	o, err := New(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Rebind(nil, Options{}); err == nil {
		t.Error("Rebind(nil) succeeded")
	}
	if err := o.Rebind(m, Options{Policy: pathgen.Policy{MaxHops: -1}}); err == nil {
		t.Error("Rebind with a negative hop bound succeeded")
	}
	got, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want.Utility || !reflect.DeepEqual(got.Bundles, want.Bundles) {
		t.Fatalf("run after a refused Rebind differs: utility %v vs %v", got.Utility, want.Utility)
	}
}

// TestRebindBoundsPathMemo: what the generators keep across epochs is
// bounded by the instance (aggregates × path-set cap), not by how long the
// replay has run. A handful of aggregates over rotating link failures
// passes the bound every few epochs; the flush shows as the entry count
// falling across a Rebind, and costs the runs after it nothing but
// searches.
func TestRebindBoundsPathMemo(t *testing.T) {
	topo, full, _ := propInstance(t, 5)
	var aggs []traffic.Aggregate
	for _, a := range full.Aggregates() {
		if !a.IsSelfPair() && len(aggs) < 4 {
			a.Flows *= 6
			aggs = append(aggs, a)
		}
	}
	opts := Options{Workers: 1}.withDefaults()
	bound := len(aggs) * opts.MaxPathsPerAggregate
	var kept *Optimizer
	flushes, peak := 0, 0
	for epoch := 0; epoch < 60; epoch++ {
		ep := rebindEpoch{topo: topo, aggs: aggs}
		ep.policy.ForbiddenLinks = pathgen.ForbidLinks(topo, topology.LinkID(2*(epoch%7)))
		opts.Policy = ep.policy
		before := 0
		var err error
		if kept == nil {
			kept, err = New(ep.model(t), opts)
		} else {
			before = kept.gen.Entries()
			err = kept.Rebind(ep.model(t), opts)
		}
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		switch after := kept.gen.Entries(); {
		case after < before:
			if before <= bound {
				t.Fatalf("epoch %d: flushed %d entries, under the bound %d", epoch, before, bound)
			}
			flushes++
		case before > bound:
			t.Fatalf("epoch %d: %d entries survived a Rebind, bound %d", epoch, before, bound)
		}
		got, err := kept.Run(context.Background())
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		want, err := Run(context.Background(), ep.model(t), opts)
		if err != nil {
			t.Fatalf("epoch %d: fresh: %v", epoch, err)
		}
		if got.Utility != want.Utility || got.Steps != want.Steps || !reflect.DeepEqual(got.Bundles, want.Bundles) {
			t.Fatalf("epoch %d: utility %v vs %v, steps %d vs %d", epoch, got.Utility, want.Utility, got.Steps, want.Steps)
		}
		peak = max(peak, kept.gen.Entries())
	}
	if flushes == 0 {
		t.Errorf("memo never passed its bound %d (peak %d entries): nothing was flushed", bound, peak)
	}
}
