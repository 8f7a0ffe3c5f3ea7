package scenario

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fubar/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestTableGolden pins the rendered epoch table and trajectory table
// byte for byte: a closed-loop crisis replay (so the wiremods / trueU /
// miss / mbb-room columns are exercised) and its downsampled trajectory,
// against testdata/table_crisis.golden. Elapsed is wall-clock and is
// zeroed before rendering; everything else in the table is pinned by the
// replay determinism the matrix test already enforces. Regenerate with
// `go test ./internal/scenario -run TestTableGolden -update`.
func TestTableGolden(t *testing.T) {
	topo, mat := matrixInstance(t)
	sc, err := ByName("crisis", 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runClosedLoop(context.Background(), topo, mat, sc, Options{
		Core: core.Options{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ClosedLoop {
		t.Fatal("closed-loop replay did not mark its result closed-loop")
	}
	for i := range res.Epochs {
		res.Epochs[i].Elapsed = 0
	}

	var buf bytes.Buffer
	if err := res.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	if err := sampleTrajectory("crisis", res, 2).Table().Render(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "table_crisis.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendered tables diverged from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}

// sampleTrajectory downsamples a collected replay into a trajectory of at
// most points buckets, as a streaming TrajectoryRecorder would have.
func sampleTrajectory(family string, res *Result, points int) Trajectory {
	rec := NewTrajectoryRecorder(family, len(res.Epochs), points)
	for i := range res.Epochs {
		rec.Observe(&res.Epochs[i])
	}
	return rec.Trajectory()
}
