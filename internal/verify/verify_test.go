package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// answer is an allocation, its rates and the forbidden-link mask it is
// checked under.
type answer struct {
	bundles   []flowmodel.Bundle
	rates     []float64
	forbidden []bool
}

// lineInstance is a three-node line A–B–C (links 0 A→B, 1 B→A, 2 B→C,
// 3 C→B; 10 ms each), A–B sized to three bulk flows' demand d = 200 kbps
// and B–C roomy, under three bulk aggregates: A→C with 4 flows, A→B with 2
// and the self-pair B→B with 1. Its right answer routes each on its one
// path. Both backbone bundles weigh flows/RTT = 4/40 = 2/20 per ms, so
// max-min splits A–B evenly: 1.5d each, both under demand, A–B their
// shared bottleneck.
func lineInstance(t *testing.T) (*topology.Topology, *traffic.Matrix, *answer) {
	t.Helper()
	d := utility.Bulk().PeakBandwidth()
	b := topology.NewBuilder("line")
	b.AddLink("A", "B", 3*d, 10*unit.Millisecond)
	b.AddLink("B", "C", 100*d, 10*unit.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mat, err := traffic.NewMatrix(topo, []traffic.Aggregate{
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk()},
		{Src: 0, Dst: 1, Class: utility.ClassBulk, Flows: 2, Fn: utility.Bulk()},
		{Src: 1, Dst: 1, Class: utility.ClassBulk, Flows: 1, Fn: utility.Bulk()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat, &answer{
		bundles: []flowmodel.Bundle{
			{Agg: 0, Flows: 4, Edges: []graph.EdgeID{0, 2}},
			{Agg: 1, Flows: 2, Edges: []graph.EdgeID{0}},
			{Agg: 2, Flows: 1},
		},
		rates:     []float64{1.5 * float64(d), 1.5 * float64(d), float64(d)},
		forbidden: make([]bool, topo.NumLinks()),
	}
}

// TestChecksCatchPlantedBugs plants one bug at a time into lineInstance's
// right answer and requires Allocation or MaxMin to name it; the right
// answer itself must pass both.
func TestChecksCatchPlantedBugs(t *testing.T) {
	d := float64(utility.Bulk().PeakBandwidth())
	for _, c := range []struct {
		name  string
		plant func(*answer)
		want  string // "" for the right answer
	}{
		{"right answer", func(*answer) {}, ""},
		{"dropped bundle", func(a *answer) { a.bundles, a.rates = slices.Delete(a.bundles, 1, 2), slices.Delete(a.rates, 1, 2) },
			"aggregate 1: bundles carry 0 flows, want 2"},
		{"zero flows", func(a *answer) { a.bundles[1].Flows = 0 }, "bundle 1 (aggregate 1): 0 flows"},
		{"unknown aggregate", func(a *answer) { a.bundles[2].Agg = 3 }, "bundle 2: aggregate 3 not in the matrix"},
		{"path skips a node", func(a *answer) { a.bundles[0].Edges = []graph.EdgeID{2} },
			"bundle 0 (aggregate 0): edge 0 leaves node 1, the walk is at node 0"},
		{"path ends at the wrong node", func(a *answer) { a.bundles[0].Edges = []graph.EdgeID{0} }, "ends at node 1, want node 2"},
		{"link not in the topology", func(a *answer) { a.bundles[0].Edges = []graph.EdgeID{0, 4} }, "edge 1 is link 4, not in the topology"},
		{"self-pair with a path", func(a *answer) { a.bundles[2].Edges = []graph.EdgeID{1, 0} }, "self-pair aggregate 2): 2 edges, want none"},
		{"forbidden link on a path", func(a *answer) { a.forbidden[2], a.forbidden[3] = true, true }, "edge 1 is forbidden link 2"},
		{"rate over a link's capacity", func(a *answer) { a.rates[0], a.rates[1] = 2*d, 2*d }, "link 0: load 800 over capacity 600"},
		{"rate over a bundle's demand", func(a *answer) { a.rates[0], a.rates[1] = 0.5*d, 2.5*d }, "bundle 1: rate 500 outside [0, demand 400]"},
		{"under demand, no saturated link", func(a *answer) { a.rates[0], a.rates[1] = d, d },
			"bundle 0: rate 200 under demand 800 with no bottleneck"},
		{"under demand, not the largest on its saturated link", func(a *answer) { a.rates[0], a.rates[1] = d, 2*d },
			"bundle 0: rate 200 under demand 800 with no bottleneck"},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo, mat, a := lineInstance(t)
			c.plant(a)
			err := Allocation(topo, mat, a.bundles, a.forbidden)
			if err == nil {
				err = MaxMin(topo, mat, a.bundles, a.rates, 1e-9)
			}
			if (err == nil) != (c.want == "") || !strings.Contains(fmt.Sprint(err), c.want) {
				t.Fatalf("checks say %v, want an error naming %q", err, c.want)
			}
		})
	}
}
