package baseline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fubar/internal/anneal"
	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// TestConcurrentCallersShareOneModel runs one-shot evaluators — the
// shortest-path baseline and two short fixed-seed annealing runs, each on
// an arena of its own — from goroutines of their own over one shared
// Model, several rounds each, and requires every outcome to equal the same
// call made serially (the annealer's wall time aside). A Model holds no
// evaluation scratch, so under -race the callers share nothing they write.
// The two annealers evaluate in the same stretch of time, so a scratch
// arena held by the Model shows as a race report (or a corrupt outcome) on
// every run, not only when the baseline happens to overlap them.
func TestConcurrentCallersShareOneModel(t *testing.T) {
	topo, err := topology.Ring(8, 4, 1200*unit.Kbps, 5)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.Generate(topo, traffic.DefaultGenConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	m, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		run  func() (any, error)
	}{
		{"ShortestPath", func() (any, error) { return ShortestPath(m, pathgen.Policy{}) }},
		{"anneal.Run seed 3", annealRun(m, 3)},
		{"anneal.Run seed 4", annealRun(m, 4)},
	}
	want := make([]any, len(calls))
	for i, c := range calls {
		if want[i], err = c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := c.run()
				if err != nil {
					t.Errorf("%s round %d: %v", c.name, r, err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s round %d: outcome differs from the serial call's", c.name, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// annealRun is a short annealing run at seed, its wall time zeroed.
func annealRun(m *flowmodel.Model, seed int64) func() (any, error) {
	return func() (any, error) {
		sol, err := anneal.Run(context.Background(), m, anneal.Options{Seed: seed, MaxIterations: 300})
		if sol != nil {
			sol.Elapsed = 0
		}
		return sol, err
	}
}
