package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fubar/internal/unit"
)

// TestExtensionExperimentsSmoke runs the fast extension experiments end
// to end: they must complete without error and print their tables.
// The figure experiments (fig3-fig7) run to convergence and are covered
// by the root-level shape tests instead.
func TestExtensionExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name string
		f    func() error
	}{
		{"fig12", fig12},
		{"validate", func() error { return validate(1) }},
		{"queues", func() error { return queues(1) }},
		{"mpls", func() error { return mplsSync(1) }},
		{"failover", func() error { return failover(1) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
	}
}

// TestBenchInstance verifies the shared extension instance is congested
// (otherwise the extension experiments degenerate).
func TestBenchInstance(t *testing.T) {
	topo, mat, err := benchInstance(1)
	if err != nil {
		t.Fatalf("benchInstance: %v", err)
	}
	if topo.NumNodes() == 0 || mat.NumAggregates() == 0 {
		t.Fatal("empty instance")
	}
	var capacity unit.Bandwidth
	for _, l := range topo.Links() {
		capacity += l.Capacity
	}
	if mat.TotalDemand() <= capacity/10 {
		t.Fatalf("instance too idle: demand %v vs capacity %v", mat.TotalDemand(), capacity)
	}
}

// TestSelectExperiments pins the -exp lookup run dispatches on: a typo and
// each retired mode are errors (run returns 2 on them) that name the
// valid experiments, "all" leaves out the explicit-only ones, and every
// listed name selects exactly itself. "dqueues" is retired with no alias:
// the drop-tail queue experiment is "queues" now.
func TestSelectExperiments(t *testing.T) {
	for _, bad := range []string{"fig33", "", "corebench", "evalbench", "scale", "obs", "scenario", "ctrlloop", "dqueues"} {
		if code := run([]string{"-exp", bad}); code != 2 {
			t.Errorf("run -exp %q = %d, want exit code 2", bad, code)
		}
		picked, err := selectExperiments(bad)
		if err == nil {
			t.Errorf("-exp %q selected %v, want an error", bad, picked)
		} else if !strings.Contains(err.Error(), "fig3") || !strings.Contains(err.Error(), "soak") {
			t.Errorf("-exp %q: error does not list the valid names: %v", bad, err)
		}
	}
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(experimentNames(false)); len(all) != want {
		t.Errorf("all selected %d experiments, want the %d non-explicit ones", len(all), want)
	}
	for _, i := range all {
		if experiments[i].explicit {
			t.Errorf("all selected explicit-only %q", experiments[i].name)
		}
	}
	for i, e := range experiments {
		picked, err := selectExperiments(e.name)
		if err != nil || len(picked) != 1 || picked[0] != i {
			t.Errorf("-exp %s selected %v (%v), want [%d]", e.name, picked, err, i)
		}
	}
}

// TestFailedRunFlushesProfile pins that run's defers survive a failing
// experiment: the exit code is 1 and the CPU profile asked for is on disk,
// not the empty file an os.Exit inside the experiment loop left behind.
func TestFailedRunFlushesProfile(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	failing := experiments[0]
	failing.name, failing.title = "failing", "failing: always errors"
	failing.run = func(*benchFlags) error { return errors.New("boom") }
	experiments = append(experiments[:len(experiments):len(experiments)], failing)

	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code := run([]string{"-exp", "failing", "-cpuprofile", prof}); code != 1 {
		t.Fatalf("run = %d, want exit code 1", code)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile after a failed run: %v, %v; want a non-empty file", st, err)
	}
}
