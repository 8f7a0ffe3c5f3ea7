package anneal

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// testInstance builds a small congested ring instance where rerouting
// pays off: a 8-node ring with chords, all-pairs bulk traffic sized so
// shortest paths congest.
func testInstance(t *testing.T, seed int64) (*topology.Topology, *traffic.Matrix, *flowmodel.Model) {
	t.Helper()
	topo, err := topology.Ring(8, 4, 800*unit.Kbps, seed)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 8}
	cfg.BulkFlows = [2]int{1, 4}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	return topo, mat, model
}

func TestRunImprovesOverShortestPath(t *testing.T) {
	_, _, model := testInstance(t, 7)
	sol, err := Run(context.Background(), model, Options{Seed: 7, MaxIterations: 4000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sol.Utility < sol.InitialUtility {
		t.Fatalf("annealing lost utility: %.4f -> %.4f", sol.InitialUtility, sol.Utility)
	}
	if sol.Utility == sol.InitialUtility {
		t.Fatalf("annealing made no progress from %.4f (iters=%d accepted=%d)",
			sol.InitialUtility, sol.Iterations, sol.Accepted)
	}
	if sol.Evaluations < sol.Iterations {
		t.Fatalf("evaluations %d < iterations %d", sol.Evaluations, sol.Iterations)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	_, _, model := testInstance(t, 3)
	a, err := Run(context.Background(), model, Options{Seed: 42, MaxIterations: 1500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	_, _, model2 := testInstance(t, 3)
	b, err := Run(context.Background(), model2, Options{Seed: 42, MaxIterations: 1500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Utility != b.Utility || a.Accepted != b.Accepted || a.Iterations != b.Iterations {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(context.Background(), model, Options{Seed: 43, MaxIterations: 1500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Accepted == c.Accepted && a.Utility == c.Utility && a.Uphill == c.Uphill {
		t.Logf("warning: different seeds produced identical runs (possible but unlikely)")
	}
}

func TestFlowConservation(t *testing.T) {
	_, mat, model := testInstance(t, 11)
	sol, err := Run(context.Background(), model, Options{Seed: 11, MaxIterations: 2000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	perAgg := make(map[traffic.AggregateID]int)
	for _, b := range sol.Bundles {
		if b.Flows <= 0 {
			t.Fatalf("bundle with non-positive flows: %+v", b)
		}
		perAgg[b.Agg] += b.Flows
	}
	for i := 0; i < mat.NumAggregates(); i++ {
		id := traffic.AggregateID(i)
		want := mat.Aggregate(id).Flows
		if got := perAgg[id]; got != want {
			t.Fatalf("aggregate %d: %d flows allocated, want %d", i, got, want)
		}
	}
}

func TestProposePreservesInvariants(t *testing.T) {
	_, _, model := testInstance(t, 5)
	a, err := New(model, Options{Seed: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		ai, from, to, n := a.propose(rng)
		st := &a.aggs[ai]
		if n == 0 {
			continue
		}
		if from == to {
			t.Fatalf("trial %d: from == to == %d", trial, from)
		}
		if n < 1 || n > st.flows[from] {
			t.Fatalf("trial %d: chunk %d outside [1,%d]", trial, n, st.flows[from])
		}
		// Apply and check conservation, as Run would.
		st.flows[from] -= n
		st.flows[to] += n
		sum := 0
		for _, f := range st.flows {
			if f < 0 {
				t.Fatalf("trial %d: negative flows %v", trial, st.flows)
			}
			sum += f
		}
		if sum != st.total {
			t.Fatalf("trial %d: conservation broken: %d != %d", trial, sum, st.total)
		}
	}
}

func TestDeadlineStopsRun(t *testing.T) {
	_, _, model := testInstance(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, err := Run(ctx, model, Options{Seed: 2, MaxIterations: 1 << 30})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline ignored: ran %v", el)
	}
	if sol.Iterations == 0 {
		t.Fatalf("no iterations before deadline")
	}
}

func TestOptionsDefaults(t *testing.T) {
	_, _, model := testInstance(t, 2)
	for _, tc := range []struct{ set, want int }{{0, 200000}, {10, 10}} {
		a, err := New(model, Options{MaxIterations: tc.set})
		if err != nil {
			t.Fatal(err)
		}
		if a.opts.MaxIterations != tc.want {
			t.Fatalf("MaxIterations %d: got %d, want %d", tc.set, a.opts.MaxIterations, tc.want)
		}
		// The derived schedule reaches minTemp at the iteration budget.
		end := initialTemp * math.Pow(a.cooling, float64(tc.want))
		if math.Abs(end-minTemp) > 1e-9*minTemp {
			t.Fatalf("MaxIterations %d: schedule ends at %g, want %g", tc.want, end, minTemp)
		}
	}
}

func TestNewRejectsNilModel(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New(nil) succeeded")
	}
}

// TestComparableToFUBAR reproduces the §2.5 claim on a small instance:
// the annealer reaches utility in the same ballpark as FUBAR but spends
// far more traffic-model evaluations doing it.
func TestComparableToFUBAR(t *testing.T) {
	_, _, model := testInstance(t, 17)
	fub, err := core.Run(context.Background(), model, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	_, _, model2 := testInstance(t, 17)
	sa, err := Run(context.Background(), model2, Options{Seed: 17, MaxIterations: 20000})
	if err != nil {
		t.Fatalf("anneal.Run: %v", err)
	}
	if sa.Utility < fub.InitialUtility {
		t.Fatalf("annealer below shortest path: %.4f < %.4f", sa.Utility, fub.InitialUtility)
	}
	// "Similar results": within 10% of FUBAR's final utility.
	if sa.Utility < fub.Utility*0.90 {
		t.Fatalf("annealer too far below FUBAR: %.4f vs %.4f", sa.Utility, fub.Utility)
	}
	// "Much shorter time": FUBAR needs far fewer model evaluations. Each
	// FUBAR step evaluates ~3 alternatives per crossing bundle; even a
	// generous upper estimate stays well under the annealer's count.
	if sa.Evaluations < fub.Steps {
		t.Fatalf("annealer used fewer evaluations (%d) than FUBAR steps (%d)?", sa.Evaluations, fub.Steps)
	}
	t.Logf("FUBAR %.4f in %d steps; SA %.4f in %d evaluations",
		fub.Utility, fub.Steps, sa.Utility, sa.Evaluations)
}

func TestSelfPairsStayHome(t *testing.T) {
	topo, err := topology.Ring(5, 2, 1000*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	aggs := []traffic.Aggregate{
		{Src: 0, Dst: 0, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk(), Weight: 1},
		{Src: 0, Dst: 2, Class: utility.ClassBulk, Flows: 4, Fn: utility.Bulk(), Weight: 1},
	}
	mat, err := traffic.NewMatrix(topo, aggs)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		t.Fatalf("flowmodel.New: %v", err)
	}
	sol, err := Run(context.Background(), model, Options{Seed: 1, MaxIterations: 500})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, b := range sol.Bundles {
		if b.Agg == 0 && len(b.Edges) != 0 {
			t.Fatalf("self-pair routed through the backbone: %+v", b)
		}
	}
}
