package fubar

import (
	"context"
	"sort"
	"strings"
	"testing"

	"fubar/internal/scenario"
)

// srlgRingInstance is testRingInstance with two shared-risk groups
// declared, so the SRLG-driven families (srlg, crisis) have real events
// to play at the facade level.
func srlgRingInstance(t *testing.T, seed int64) (*Topology, *Matrix) {
	t.Helper()
	topo, mat := testRingInstance(t, seed)
	st, err := topo.WithSRLGs([]SRLG{
		{Name: "ga", Links: []LinkID{0, 2}},
		{Name: "gb", Links: []LinkID{4}},
	})
	if err != nil {
		t.Fatalf("WithSRLGs: %v", err)
	}
	if mat, err = NewMatrix(st, mat.Aggregates()); err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	return st, mat
}

// TestFacadeScenarioMatrixAcceptance is the facade-level acceptance
// gate for the scenario matrix: every canned family — composites
// included — must resolve through ScenarioByName, replay closed loop
// through the public API with a reconciled wire ledger and no
// black-holed epoch, and downsample into a trajectory. The registry
// itself must list the composite families in sorted order, and an
// unknown name's error must enumerate exactly that list.
func TestFacadeScenarioMatrixAcceptance(t *testing.T) {
	names := ScenarioNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ScenarioNames not sorted: %v", names)
	}
	for _, want := range []string{"crisis", "diurnalstorm"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Fatalf("composite family %q missing from %v", want, names)
		}
	}
	if _, err := ScenarioByName("no-such-family", 1, 1); err == nil {
		t.Fatal("unknown family resolved")
	} else if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown-family error does not enumerate the sorted registry: %v", err)
	}

	topo, mat := srlgRingInstance(t, 31)
	const epochs = 4
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			sc, err := ScenarioByName(name, 11, epochs)
			if err != nil {
				t.Fatalf("ScenarioByName: %v", err)
			}
			s, err := NewSession(topo, mat, WithWorkers(2))
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			defer s.Close()
			res, err := s.ReplayClosedLoopAll(context.Background(), sc)
			if err != nil {
				t.Fatalf("ReplayClosedLoopAll: %v", err)
			}
			if len(res.Epochs) != epochs {
				t.Fatalf("replayed %d epochs, want %d", len(res.Epochs), epochs)
			}
			for _, e := range res.Epochs {
				if err := e.Check(); err != nil {
					t.Error(err)
				}
			}
			tr := sampleTrajectory(name, res, 2)
			covered := 0
			for _, p := range tr.Points {
				covered += p.Epochs
				if p.Utility <= 0 {
					t.Errorf("trajectory bucket at epoch %d: utility %v", p.Epoch, p.Utility)
				}
			}
			if tr.Family != name || covered != epochs {
				t.Errorf("trajectory covers %d epochs as %q, want %d as %q", covered, tr.Family, epochs, name)
			}
		})
	}
}

// TestFacadeSoakScenario checks the long-horizon generator and the
// composite merge through the facade: a Soak timeline stays sparse
// (O(epochs/period) events) and replays cleanly, and scenario.Compose
// (what the canned composites are built with) merges sub-timelines in
// epoch order truncated to the composite horizon.
func TestFacadeSoakScenario(t *testing.T) {
	topo, mat := srlgRingInstance(t, 31)
	sc := SoakScenario(3, 200, 10)
	if len(sc.Events) > 4*200/10 {
		t.Fatalf("soak timeline not sparse: %d events for 200 epochs at period 10", len(sc.Events))
	}
	s, err := NewSession(topo, mat)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	res, err := s.ReplayAll(context.Background(), sc)
	if err != nil {
		t.Fatalf("ReplayAll: %v", err)
	}
	if len(res.Epochs) != 200 {
		t.Fatalf("replayed %d epochs, want 200", len(res.Epochs))
	}
	tr := sampleTrajectory("soak", res, 8)
	if len(tr.Points) != 8 {
		t.Fatalf("trajectory has %d points, want 8", len(tr.Points))
	}

	comp := scenario.Compose("both", 9, 3,
		DiurnalScenario(1, 6, 0.3, 0),
		scenario.Maintenance(2, 3),
	)
	if comp.Name != "both" || comp.Epochs != 3 {
		t.Fatalf("composite shape wrong: %+v", comp)
	}
	for i, e := range comp.Events {
		if e.Epoch < 0 || e.Epoch >= 3 {
			t.Fatalf("event %d at epoch %d escaped the composite horizon", i, e.Epoch)
		}
		if i > 0 && e.Epoch < comp.Events[i-1].Epoch {
			t.Fatalf("composite events out of epoch order at %d", i)
		}
	}
}

// sampleTrajectory downsamples a collected replay into a trajectory of at
// most points buckets, as a streaming TrajectoryRecorder would have.
func sampleTrajectory(family string, res *scenario.Result, points int) scenario.Trajectory {
	rec := scenario.NewTrajectoryRecorder(family, len(res.Epochs), points)
	for i := range res.Epochs {
		rec.Observe(&res.Epochs[i])
	}
	return rec.Trajectory()
}
