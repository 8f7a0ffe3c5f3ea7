package baseline

import (
	"reflect"
	"sync"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/netsim"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// TestConcurrentCallersShareOneModel runs the one-shot evaluators — the
// shortest-path baseline and netsim.Evaluate — from goroutines of their own over
// one shared Model, several rounds each, and requires every outcome to
// equal the same call made serially. A Model holds no evaluation scratch,
// so under -race the callers share nothing they write.
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
	sp, err := ShortestPath(m, pathgen.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		run  func() (any, error)
	}{
		{"ShortestPath", func() (any, error) { return ShortestPath(m, pathgen.Policy{}) }},
		{"netsim.Evaluate", func() (any, error) { return netsim.Evaluate(topo, m, sp.Bundles) }},
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
