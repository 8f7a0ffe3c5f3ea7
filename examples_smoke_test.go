package fubar_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestExamplesBuildAndRun is the examples smoke step: every directory
// under examples/ must build, and the canonical walkthroughs
// (quickstart, scenario-replay and the control-plane example
// sdn-deployment) must run to completion — so an API change can never
// silently break the documented entry points. Requires
// the go toolchain on PATH (always true for `go test`); skipped under
// -short.
func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("examples", e.Name()))
		}
	}
	sort.Strings(dirs)
	if len(dirs) == 0 {
		t.Fatal("no example directories found")
	}
	outDir := t.TempDir()
	for _, d := range dirs {
		cmd := exec.Command(goBin, "build", "-o", filepath.Join(outDir, filepath.Base(d)), "./"+d)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", d, err, out)
		}
	}
	for _, name := range []string{"quickstart", "scenario-replay", "sdn-deployment"} {
		cmd := exec.Command(filepath.Join(outDir, name))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run %s: %v\n%s", name, err, out)
		}
	}
}
