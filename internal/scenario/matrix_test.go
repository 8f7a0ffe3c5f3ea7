package scenario

import (
	"context"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// matrixInstance is the scenario-matrix instance: a small ring with two
// shared-risk groups declared, so every canned generator — including the
// SRLG-driven composites — has real events to play.
func matrixInstance(t *testing.T) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, 1)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	st, err := topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		t.Fatalf("WithSRLGs: %v", err)
	}
	cfg := traffic.DefaultGenConfig(7)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(st, cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return st, mat
}

// matrixCell is one policy/budget configuration of the scenario matrix.
type matrixCell struct {
	name     string
	cold     bool
	replicas int
	budget   time.Duration
}

// matrixCells enumerates the policy dimension every generator is run
// against: warm/cold start, 1-vs-3-replica control plane, and a wall-clock
// budget cell. Budgeted cells are machine-dependent by construction (see
// core.Options.Workers) and are checked for invariants only, never
// determinism. The full-evaluation cell is internal/core's
// TestScenarioMatrixOracle: only core's tests can select the oracle.
func matrixCells() []matrixCell {
	return []matrixCell{
		{name: "warm-delta-r1", replicas: 1},
		{name: "cold-delta-r1", cold: true, replicas: 1},
		{name: "warm-delta-r3", replicas: 3},
		{name: "warm-delta-r1-budget", replicas: 1, budget: 250 * time.Millisecond},
	}
}

// TestScenarioMatrix enumerates every canned generator (composites
// included) against the policy/budget cells, closed loop end to end:
// each deterministic cell must replay bit-identically at Workers 1 and
// 4, and every epoch of every cell — budgeted ones included — must pass
// EpochResult.Check: a reconciled wire ledger and no black hole. This is
// the kube-ovn-style feature matrix for the soak layer: generators ×
// {warm/cold, replicas 1/3, budget} × worker counts.
func TestScenarioMatrix(t *testing.T) {
	topo, mat := matrixInstance(t)
	const epochs = 5
	ctx := context.Background()
	for _, name := range Names() {
		sc, err := ByName(name, 11, epochs)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		for _, c := range matrixCells() {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				workerCounts := []int{1, 4}
				if c.budget > 0 {
					// Budget cells are machine-dependent: one run,
					// invariants only.
					workerCounts = []int{4}
				}
				var ref *Result
				for _, workers := range workerCounts {
					opts := Options{
						Core:      core.Options{Workers: workers},
						ColdStart: c.cold,
						Replicas:  c.replicas,
						Budget:    c.budget,
					}
					res, err := runClosedLoop(ctx, topo, mat, sc, opts)
					if err != nil {
						t.Fatalf("Workers=%d: %v", workers, err)
					}
					if len(res.Epochs) != epochs {
						t.Fatalf("Workers=%d: %d epochs, want %d", workers, len(res.Epochs), epochs)
					}
					for _, e := range res.Epochs {
						if err := e.Check(); err != nil {
							t.Errorf("Workers=%d: %v", workers, err)
						}
					}
					if c.budget > 0 {
						continue
					}
					if ref == nil {
						ref = res
					} else if err := ref.Equivalent(res); err != nil {
						t.Fatalf("Workers=%d diverged from Workers=%d: %v", workers, workerCounts[0], err)
					}
				}
			})
		}
	}
}
