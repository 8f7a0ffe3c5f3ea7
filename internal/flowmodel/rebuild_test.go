package flowmodel

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// TestRebuildMatchesNew holds one model rebuilt over a sequence of matrices
// — growing, shrinking, re-indexed (the same aggregates in another order),
// on another topology — to the model New builds over the same matrix,
// field by field, and an arena bound to the rebuilt model to one bound to
// the fresh model, bit for bit. A refused matrix leaves the model as it
// was.
func TestRebuildMatchesNew(t *testing.T) {
	ring := func(nodes int, caps unit.Bandwidth, seed int64) *topology.Topology {
		topo, err := topology.Ring(nodes, 2, caps, seed)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	draw := func(topo *topology.Topology, seed int64) []traffic.Aggregate {
		mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		return mat.Aggregates()
	}
	small, big := ring(6, 600*unit.Kbps, 1), ring(9, 2*unit.Mbps, 2)
	aggs := draw(small, 3)
	reversed := slices.Clone(aggs)
	slices.Reverse(reversed)
	steps := []struct {
		name string
		topo *topology.Topology
		aggs []traffic.Aggregate
	}{
		{"start", small, aggs[:len(aggs)/2]},
		{"growing", small, aggs},
		{"shrinking", small, aggs[:3]},
		{"re-indexed", small, reversed},
		{"other topology", big, draw(big, 4)},
		{"back", small, aggs[:len(aggs)/3]},
	}
	var kept Model
	var arena *Eval
	for _, st := range steps {
		mat, err := traffic.NewMatrix(st.topo, st.aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(st.topo, mat)
		if err != nil {
			t.Fatal(err)
		}
		if err := Rebuild(&kept, st.topo, mat); err != nil {
			t.Fatalf("%s: Rebuild: %v", st.name, err)
		}
		if f := modelDiff(&kept, want); f != "" {
			t.Fatalf("%s: rebuilt model's %s differs from New's", st.name, f)
		}
		_, bundles := startAllocation(t, st.topo, mat, pathgen.Policy{}, false)
		if arena == nil {
			arena = kept.NewEval()
		}
		arena.Rebind(&kept)
		res := arena.Evaluate(bundles).Clone()
		if err := res.Diff(want.NewEval().Evaluate(bundles)); err != nil {
			t.Fatalf("%s: evaluation on the rebuilt model: %v", st.name, err)
		}
	}
	before := kept
	before.capacity, before.demandPer = slices.Clone(kept.capacity), slices.Clone(kept.demandPer)
	before.aggFlows, before.aggWeight = slices.Clone(kept.aggFlows), slices.Clone(kept.aggWeight)
	other, err := traffic.NewMatrix(big, draw(big, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := Rebuild(&kept, small, other); err == nil {
		t.Fatal("Rebuild accepted a matrix bound to another topology")
	}
	if f := modelDiff(&kept, &before); f != "" {
		t.Fatalf("a refused Rebuild changed the model's %s", f)
	}
}

// modelDiff names the first field in which two models differ, "" when
// none does. It panics when Model has a field it does not compare.
func modelDiff(got, want *Model) string {
	fields := []struct {
		name string
		same bool
	}{
		{"topo", got.topo == want.topo},
		{"mat", got.mat == want.mat},
		{"capacity", slices.Equal(got.capacity, want.capacity)},
		{"demandPer", slices.Equal(got.demandPer, want.demandPer)},
		{"aggFlows", slices.Equal(got.aggFlows, want.aggFlows)},
		{"aggWeight", slices.Equal(got.aggWeight, want.aggWeight)},
		{"totalWeight", got.totalWeight == want.totalWeight},
	}
	if n := reflect.TypeFor[Model]().NumField(); n != len(fields) {
		panic(fmt.Sprintf("Model has %d fields, modelDiff compares %d", n, len(fields)))
	}
	for _, f := range fields {
		if !f.same {
			return f.name
		}
	}
	return ""
}
