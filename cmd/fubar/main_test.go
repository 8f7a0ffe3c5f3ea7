package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fubar"
)

// runArgs builds a runConfig for the table-driven smoke tests.
func runArgs(topoPath, capStr string, seed int64, largeWeight, delayScale float64,
	maxPaths, workers int, verbose, showPaths bool,
	scenName string, epochs int, cold, ctrlplane bool, budget time.Duration) runConfig {
	return runConfig{
		topoPath: topoPath, capStr: capStr, seed: seed,
		largeWeight: largeWeight, delayScale: delayScale,
		maxPaths: maxPaths, workers: workers,
		verbose: verbose, showPaths: showPaths,
		scenName: scenName, epochs: epochs, cold: cold,
		ctrlplane: ctrlplane, budget: budget,
		leasePolicy: "static", // the flag's default
	}
}

func TestRunOnGeneratedTopology(t *testing.T) {
	// Small custom topology keeps the smoke test fast.
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	topo := `topology smoke
link A B 2Mbps 5ms
link B C 2Mbps 5ms
link A C 2Mbps 12ms
link C D 2Mbps 5ms
link B D 2Mbps 9ms
`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), runArgs(path, "2Mbps", 3, 1, 1, 15, 2, false, true, "", 0, false, false, 5*time.Second)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunScenarioReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	topo := `topology smoke
link A B 2Mbps 5ms
link B C 2Mbps 5ms
link A C 2Mbps 12ms
link C D 2Mbps 5ms
link B D 2Mbps 9ms
`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), runArgs(path, "2Mbps", 3, 1, 1, 15, 1, false, false, "diurnal", 3, false, false, 5*time.Second)); err != nil {
		t.Fatalf("scenario replay: %v", err)
	}
	if err := run(context.Background(), runArgs(path, "2Mbps", 3, 1, 1, 15, 1, false, false, "bogus", 3, false, false, 5*time.Second)); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestRunScenarioClosedLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	topo := `topology smoke
link A B 2Mbps 5ms
link B C 2Mbps 5ms
link A C 2Mbps 12ms
link C D 2Mbps 5ms
link B D 2Mbps 9ms
`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), runArgs(path, "2Mbps", 3, 1, 1, 15, 1, false, false, "maintenance", 3, false, true, 5*time.Second)); err != nil {
		t.Fatalf("closed-loop replay: %v", err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run(context.Background(), runArgs("", "notarate", 1, 1, 1, 15, 0, false, false, "", 0, false, false, time.Second)); err == nil {
		t.Error("bad capacity accepted")
	}
	if err := run(context.Background(), runArgs("/nonexistent/file.topo", "10Mbps", 1, 1, 1, 15, 0, false, false, "", 0, false, false, time.Second)); err == nil {
		t.Error("missing topology file accepted")
	}
	// A bad -lease-policy is an error even with no -lease to apply it to.
	rc := runArgs("", "10Mbps", 1, 1, 1, 15, 0, false, false, "", 0, false, false, time.Second)
	rc.leasePolicy = "bogus"
	if err := run(context.Background(), rc); err == nil || !strings.Contains(err.Error(), "lease-policy") {
		t.Errorf("-lease-policy bogus without -lease: err = %v, want it rejected", err)
	}
}

func TestRunWithWeightAndDelayKnobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	topo := `topology knobs
link A B 1Mbps 5ms
link B C 1Mbps 5ms
link A C 1Mbps 15ms
`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), runArgs(path, "1Mbps", 2, 8, 2, 10, 4, true, false, "", 0, false, false, 5*time.Second)); err != nil {
		t.Fatalf("run with knobs: %v", err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.topo")
	topo := `topology smoke
link A B 2Mbps 5ms
link B C 2Mbps 5ms
link A C 2Mbps 12ms
`
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
		t.Fatal(err)
	}
	rc := runArgs(path, "2Mbps", 3, 1, 1, 15, 1, false, false, "", 0, false, false, 5*time.Second)
	rc.jsonOut = true
	if err := run(context.Background(), rc); err != nil {
		t.Fatalf("json run: %v", err)
	}
	// The scenario leg streams JSONL: one epoch object per line as it
	// completes, then one summary line. Capture stdout to check the
	// framing.
	rc = runArgs(path, "2Mbps", 3, 1, 1, 15, 1, false, false, "diurnal", 3, false, false, 5*time.Second)
	rc.jsonOut = true
	out := captureStdout(t, func() {
		if err := run(context.Background(), rc); err != nil {
			t.Errorf("json scenario run: %v", err)
		}
	})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // 3 epochs + summary
		t.Fatalf("JSONL stream: %d lines, want 4:\n%s", len(lines), out)
	}
	for i, line := range lines[:3] {
		var er fubar.EpochRecord
		if err := json.Unmarshal([]byte(line), &er); err != nil {
			t.Fatalf("epoch line %d: %v: %s", i, err, line)
		}
		if er.Epoch != i {
			t.Errorf("epoch line %d: got epoch %d", i, er.Epoch)
		}
	}
	var trailer struct {
		Summary *struct {
			Scenario       string `json:"scenario"`
			EpochsStreamed int    `json:"epochs_streamed"`
			Interrupted    bool   `json:"interrupted"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[3]), &trailer); err != nil || trailer.Summary == nil {
		t.Fatalf("summary line: %v: %s", err, lines[3])
	}
	if trailer.Summary.EpochsStreamed != 3 || trailer.Summary.Interrupted {
		t.Errorf("summary: %+v", *trailer.Summary)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}
