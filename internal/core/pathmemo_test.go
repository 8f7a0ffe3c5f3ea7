package core

import (
	"context"
	"slices"
	"testing"

	"fubar/internal/pathgen"
)

// TestPathMemoExactOnHEOptimization replays the request stream of a full
// HE-31 optimization — at every step, the §2.4 trio for every routed
// aggregate under that step's congestion state, a superset of what the
// step itself asks — against one generator that lives for the whole run
// and against a generator built for each single request. The memo must
// never change an answer.
func TestPathMemoExactOnHEOptimization(t *testing.T) {
	model := heBenchModel(t, 5)
	topo := model.Topology()

	newGenerator := func() *pathgen.Generator {
		gen, err := pathgen.New(topo, pathgen.Policy{})
		if err != nil {
			t.Fatal(err)
		}
		return gen
	}
	long := newGenerator()
	var o *Optimizer
	requests, steps := 0, 0
	o, err := New(model, Options{Workers: 1, Trace: func(s Snapshot) {
		steps++
		congested := model.CongestedByOversubscription(s.Result)
		o.congAsc = append(o.congAsc[:0], congested...)
		slices.Sort(o.congAsc)
		for ai := range o.aggs {
			st := &o.aggs[ai]
			if st.self {
				continue
			}
			requests++
			got := slices.Clone(o.alternativesFor(long, ai, st, congested))
			want := o.alternativesFor(newGenerator(), ai, st, congested)
			if len(got) != len(want) {
				t.Fatalf("step %d aggregate %d: %d alternatives, fresh generator %d", s.Step, ai, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) || got[i].Weight != want[i].Weight {
					t.Fatalf("step %d aggregate %d alternative %d: %v (w=%v), fresh generator %v (w=%v)",
						s.Step, ai, i, got[i].Edges, got[i].Weight, want[i].Edges, want[i].Weight)
				}
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := o.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Steps < 20 || requests < 2000 {
		t.Fatalf("stream too short to mean anything: %d steps, %d requests", sol.Steps, requests)
	}
	t.Logf("%d snapshots, %d requests (3 searches each)", steps, requests)
}
