package flowmodel

import (
	"reflect"
	"sync"
	"testing"

	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// evalInstance builds a congested ring model plus several distinct bundle
// placements (shortest-path flows split across rotated path choices).
func evalInstance(t *testing.T) (*Model, [][]Bundle) {
	t.Helper()
	topo, err := topology.Ring(8, 4, 1200*unit.Kbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := traffic.DefaultGenConfig(11)
	cfg.RealTimeFlows = [2]int{5, 15}
	cfg.BulkFlows = [2]int{3, 9}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	// Base placement: every aggregate on one shortest path.
	var base []Bundle
	for _, a := range mat.Aggregates() {
		if a.IsSelfPair() {
			base = append(base, Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := new(graph.Searcher).ShortestPath(topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			t.Fatalf("no path for aggregate %d", a.ID)
		}
		base = append(base, NewBundle(topo, a.ID, a.Flows, p))
	}
	// Variants: drop a different bundle's flows to zero so each input is a
	// distinct evaluation with a distinct result.
	inputs := make([][]Bundle, 8)
	for i := range inputs {
		in := append([]Bundle(nil), base...)
		in[i%len(in)].Flows = 0
		inputs[i] = in
	}
	return m, inputs
}

// TestModelHoldsNoArena pins that a Model carries no evaluation state:
// it has no Evaluate method and no field that holds an Eval, so any
// number of goroutines may share one Model, each through its own arena.
func TestModelHoldsNoArena(t *testing.T) {
	mt := reflect.TypeOf(&Model{})
	if _, ok := mt.MethodByName("Evaluate"); ok {
		t.Error("Model has an Evaluate method; evaluation belongs to an Eval arena")
	}
	evalT := reflect.TypeOf(Eval{})
	st := mt.Elem()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		ft := f.Type
		for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft == evalT {
			t.Errorf("Model field %s holds an Eval arena (%v)", f.Name, f.Type)
		}
	}
}

// TestFreshArenaMatchesReusedArena checks that an arena built for one
// evaluation returns exactly what a long-lived arena returns after it
// has evaluated other inputs, so a caller may choose either.
func TestFreshArenaMatchesReusedArena(t *testing.T) {
	m, inputs := evalInstance(t)
	reused := m.NewEval()
	for i, in := range inputs {
		want := reused.Evaluate(in).Clone()
		got := m.NewEval().Evaluate(in)
		if got.NetworkUtility != want.NetworkUtility {
			t.Errorf("input %d: fresh arena utility %v != reused arena utility %v", i, got.NetworkUtility, want.NetworkUtility)
		}
		for b := range want.BundleRate {
			if got.BundleRate[b] != want.BundleRate[b] {
				t.Fatalf("input %d bundle %d: fresh arena rate %v != reused arena rate %v", i, b, got.BundleRate[b], want.BundleRate[b])
			}
		}
	}
}

// TestEvalArenasConcurrent runs ≥4 arenas over one shared Model at once,
// each evaluating every input many times and checking against the serial
// reference. Under -race this is the arena-safety acceptance test.
func TestEvalArenasConcurrent(t *testing.T) {
	m, inputs := evalInstance(t)
	// Serial reference results, from one arena reused across the inputs.
	want := make([]*Result, len(inputs))
	ref := m.NewEval()
	for i, in := range inputs {
		want[i] = ref.Evaluate(in).Clone()
	}
	const arenas = 8
	var wg sync.WaitGroup
	errs := make(chan string, arenas)
	for a := 0; a < arenas; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			arena := m.NewEval()
			for rep := 0; rep < 20; rep++ {
				// Stagger the input order per arena so concurrent arenas
				// are always working on different bundle sets.
				for k := range inputs {
					i := (k + a) % len(inputs)
					got := arena.Evaluate(inputs[i])
					if got.NetworkUtility != want[i].NetworkUtility {
						errs <- "arena utility diverged from serial reference"
						return
					}
				}
			}
		}(a)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEvalArenaIndependentResults verifies two arenas do not share result
// storage: one arena's Evaluate must not clobber another's Result.
func TestEvalArenaIndependentResults(t *testing.T) {
	m, inputs := evalInstance(t)
	a1, a2 := m.NewEval(), m.NewEval()
	r1 := a1.Evaluate(inputs[0])
	u1 := r1.NetworkUtility
	rates := append([]float64(nil), r1.BundleRate...)
	if r2 := a2.Evaluate(inputs[1]); r2 == r1 {
		t.Fatal("arenas returned the same Result pointer")
	}
	if r1.NetworkUtility != u1 {
		t.Error("a2.Evaluate clobbered a1's NetworkUtility")
	}
	for i := range rates {
		if r1.BundleRate[i] != rates[i] {
			t.Fatalf("a2.Evaluate clobbered a1's BundleRate[%d]", i)
		}
	}
}
