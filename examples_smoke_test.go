package fubar_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesBuildAndRun is the examples smoke step: every package
// under examples/ must build, in one go build, and the canonical
// walkthroughs (quickstart, scenario-replay and the control-plane example
// sdn-deployment) must run to completion — so an API change can never
// silently break the documented entry points. Requires the go toolchain
// on PATH (always true for `go test`); skipped under -short.
func TestExamplesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke skipped in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	outDir := t.TempDir()
	cmd := exec.Command(goBin, "build", "-o", outDir+string(filepath.Separator), "./examples/...")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build examples: %v\n%s", err, out)
	}
	for _, name := range []string{"quickstart", "scenario-replay", "sdn-deployment"} {
		cmd := exec.Command(filepath.Join(outDir, name))
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run %s: %v\n%s", name, err, out)
		}
	}
}
