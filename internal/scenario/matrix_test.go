package scenario

import (
	"context"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/instance"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// matrixInstance is the scenario-matrix instance: the soak ring of seed 1,
// whose shared-risk groups give every canned generator — including the
// SRLG-driven composites — real events to play.
func matrixInstance(t *testing.T) (*topology.Topology, *traffic.Matrix) {
	t.Helper()
	topo, mat, err := instance.Soak(1)
	if err != nil {
		t.Fatal(err)
	}
	return topo, mat
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
// budget cell. Every cell is checked for invariants; a budgeted one is
// machine-dependent by construction (see core.Options.Workers). The
// full-evaluation cell is internal/core's
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
// every epoch of every cell must pass EpochResult.Check — a reconciled
// wire ledger and no black hole. This is the kube-ovn-style feature matrix
// for the soak layer: generators × {warm/cold, replicas 1/3, budget}.
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
				res, err := runClosedLoop(ctx, topo, mat, sc, Options{
					Core:      core.Options{Workers: 1},
					ColdStart: c.cold,
					Replicas:  c.replicas,
					Budget:    c.budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Epochs) != epochs {
					t.Fatalf("%d epochs, want %d", len(res.Epochs), epochs)
				}
				for _, e := range res.Epochs {
					if err := e.Check(); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
