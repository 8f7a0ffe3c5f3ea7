// Package mutants plants known bugs in the module, one at a time, and
// requires the tests that guard each piece of code to catch it. Every entry
// of the catalogue is a bug an earlier change planted by hand to show that
// a test holds, or one that tells apart the test legs that repeat a check
// at another worker count, scoring mode or refutation setting; together
// they are the kill matrix that decides which of those legs earn their run.
//
// The driver never edits a file: it writes the mutated copy to a temporary
// directory and builds the package's tests against it with go test
// -overlay. go test ./... skips directories named testdata, so only
//
//	go test -count=1 -timeout 60m ./testdata/mutants/
//
// runs it (minutes on two cores; a bug that makes a test run forever costs
// the two-minute timeout that catches it). It fails when a listed test
// passes with the bug in place, when the bug stops the package from
// building, and when a snippet no longer occurs exactly once in its file.
package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// mutant is one planted bug: old, which must occur exactly once in file
// (relative to the module root), replaced by new. The tests in kills —
// top-level names or subtest paths of the tests of pkg, one package or
// several separated by spaces — must each fail with it in place. An entry
// reads name, file, pkg and kills on its first line, then old and new.
type mutant struct {
	name, file, pkg string
	kills           []string
	old, new        string
}

var catalogue = []mutant{
	// The shortest-path kernel against its container/heap reference (graph).
	{"heap-pop-prefers-right-on-tie", "internal/graph/dijkstra.go", "./internal/graph", []string{"TestSearcherMatchesHeapOracle"},
		"if r := j + 1; r < n && a[r].dist < a[j].dist {",
		"if r := j + 1; r < n && a[r].dist <= a[j].dist {"},
	// Make-before-break pricing against its map reference (mpls).
	{"planner-sums-out-of-input-order", "internal/mpls/mbb.go", "./internal/mpls", []string{"TestPlannerMatchesMapReference"},
		"slices.SortStableFunc(loads, compareLoads)",
		"slices.SortFunc(loads, compareLoads)"},
	// Incremental scoring against the step closure (flowmodel).
	{"freeze-skips-closure-chain", "internal/flowmodel/flowmodel.go", "./internal/flowmodel ./internal/core", []string{"TestStepClosureScoresMatchPerCandidate",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"if c.bunMark[i] == c.epoch && d.chMark[i] != d.epoch {",
		"if false && c.bunMark[i] == c.epoch && d.chMark[i] != d.epoch {"},
	{"touched-seed-checked-twice", "internal/flowmodel/delta.go", "./internal/flowmodel", []string{"TestStepClosureScoresMatchPerCandidate"},
		"if d.linkMark[l] == d.epoch || li == 0 && d.tsMark[l] == d.epoch {",
		"if d.linkMark[l] == d.epoch || li < 0 && d.tsMark[l] == d.epoch {"},
	{"patch-base-skips-first-changed", "internal/flowmodel/rebase.go", "./internal/flowmodel ./internal/core", []string{"TestBaseStaysCaptured",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"for _, ci := range changed {\n\t\tbase.bundles[ci] = bundles[ci]",
		"for _, ci := range changed[1:] {\n\t\tbase.bundles[ci] = bundles[ci]"},
	// The fill (flowmodel).
	{"weight-over-rtt-plus-one", "internal/flowmodel/flowmodel.go", "./internal/flowmodel", []string{"TestMaxMinCertificate", "TestMaxMinCertificateScalePresets"},
		"w := float64(b.Flows) / b.RTT()",
		"w := float64(b.Flows) / (b.RTT() + 1)"},
	{"queue-keeps-risen-minimum", "internal/flowmodel/queue.go", "./internal/flowmodel ./internal/core", []string{"TestFillMatchesEagerReference", "TestLinkQueueMatchesEagerReference",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"} else if l == q.min && t > q.time[l] {",
		"} else if false && l == q.min && t > q.time[l] {"},
	{"queue-tie-break-reversed", "internal/flowmodel/queue.go", "./internal/flowmodel", []string{"TestLinkQueueMatchesEagerReference"},
		"return ta < tb || ta == tb && a < b",
		"return ta < tb || ta == tb && a > b"},
	// Windows of one shared array, each cut to end at its capacity
	// (flowmodel, core, pathgen).
	{"base-crosser-window-two-index", "internal/flowmodel/delta.go", "./internal/flowmodel ./internal/core", []string{"TestBaseStaysCaptured",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental"},
		"base.linkBun[l] = base.linkArr[at : at+n : at+n+crosserSlack]",
		"base.linkBun[l] = base.linkArr[at : at+n]"},
	{"arena-crosser-window-two-index", "internal/flowmodel/flowmodel.go", "./internal/flowmodel ./internal/core", []string{"TestDeltaContinuesInPlace",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"e.linkBun[l] = e.linkArr[off[l]:off[l]:off[l+1]]",
		"e.linkBun[l] = e.linkArr[off[l]:off[l]]"},
	{"path-set-window-two-index", "internal/core/core.go", "./internal/core", []string{"TestOptimizerInvariantsOnRing",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-1/full", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"fresh[i].set = pathgen.NewPathSet(limit, paths[i:i:i+1])",
		"fresh[i].set = pathgen.NewPathSet(limit, paths[i:i])"},
	{"edge-chunk-not-advanced", "internal/pathgen/pathgen.go", "./internal/pathgen ./internal/core", []string{"TestMemoAnswersMatchFreshGenerator",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-1/full", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"g.edges = g.edges[:len(g.edges)+hops]",
		"g.edges = g.edges[:len(g.edges)]"},
	// The path generator's memo, donors, trees and potentials (pathgen).
	{"donor-subset-unchecked", "internal/pathgen/pathgen.go", "./internal/pathgen", []string{"TestMemoAnswersMatchFreshGenerator"},
		"if !subset(g.setLinks[from], wider) {",
		"if false && !subset(g.setLinks[from], wider) {"},
	{"donor-hands-on-tied-path", "internal/pathgen/pathgen.go", "./internal/pathgen", []string{"TestMemoAnswersMatchFreshGenerator"},
		"if a.ok && !a.unique {",
		"if false && a.ok && !a.unique {"},
	{"potentials-on-open-forbidden-set", "internal/pathgen/pathgen.go", "./internal/pathgen", []string{"TestMemoAnswersMatchFreshGenerator"},
		"g.goal = g.goal && closed",
		"g.goal = g.goal || closed"},
	{"tree-answers-any-set", "internal/pathgen/pathgen.go", "./internal/pathgen ./internal/core", []string{"TestMemoAnswersMatchFreshGenerator",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-1/full", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"if key.set != g.forbidSet || key.src == key.dst || g.noTrees {",
		"if key.src == key.dst || g.noTrees {"},
	{"trees-never-built", "internal/pathgen/pathgen.go", "./internal/pathgen", []string{"TestMemoAnswersMatchFreshGenerator"},
		"if key.set != g.forbidSet || key.src == key.dst || g.noTrees {",
		"if true || key.set != g.forbidSet || key.src == key.dst || g.noTrees {"},
	{"potentials-never-used", "internal/pathgen/pathgen.go", ".", []string{"TestWorkCountsPinned"},
		"if !g.goal || g.noPotentials {",
		"if true || !g.goal || g.noPotentials {"},
	// The failed-step rule and the scoring fan-out (core).
	{"link-rule-reads-old-passes", "internal/core/core.go", "./internal/core", []string{"TestRefutationMatchesFullEnumerationReplay", "TestRefutationMatchesFullEnumerationCold", "TestRefutationAcrossRebind",
		"TestRebindMatchesFreshOptimizer/workers-1/incremental", "TestRebindMatchesFreshOptimizer/workers-1/full", "TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"if o.refutedStamp[e] == o.passEpoch {",
		"if o.refutedStamp[e] != 0 {"},
	{"level-rule-survives-commit", "internal/core/core.go", "./internal/core", []string{"TestRefutationMatchesFullEnumerationReplay/open/crisis-cold/workers-1/incremental", "TestRefutedCandidatesNeverBeatTheBound"},
		"o.prevFraction = 0 // the allocation moved: nothing is refuted",
		"// the allocation moved: nothing is refuted"},
	{"level-rule-ignores-move-size", "internal/core/core.go", "./internal/core", []string{"TestRefutationMatchesFullEnumerationReplay/open/crisis-cold/workers-1/incremental", "TestRefutedCandidatesNeverBeatTheBound", "TestSnapshotEscalation"},
		"moveSize(st.total, f, o.prevFraction) == moveSize(st.total, f, fraction)",
		"moveSize(st.total, f, o.prevFraction) <= moveSize(st.total, f, fraction)"},
	{"parallel-scoring-skips-last-candidate", "internal/core/core.go", "./internal/core", []string{"TestWorkersDeterminism", "TestStepClosureWorkersMatchSerial"},
		"if i >= len(cands) {",
		"if i >= len(cands)-1 {"},
	{"rebind-skips-later-workers", "internal/core/core.go", "./internal/core", []string{"TestRebindMatchesFreshOptimizer/workers-3/incremental"},
		"for _, w := range o.workers {\n\t\tw.eval.Rebind(model)",
		"for _, w := range o.workers[:min(1, len(o.workers))] {\n\t\tw.eval.Rebind(model)"},
	// What a right answer is (verify).
	{"allocation-allows-zero-flows", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/zero_flows"},
		"if b.Flows <= 0 {",
		"if false && b.Flows <= 0 {"},
	{"allocation-allows-forbidden-link", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/forbidden_link_on_a_path"},
		"if int(e) < len(forbidden) && forbidden[e] {",
		"if false && int(e) < len(forbidden) && forbidden[e] {"},
	{"allocation-allows-broken-walk", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/path_skips_a_node"},
		"if l.From != at {",
		"if false && l.From != at {"},
	{"allocation-allows-wrong-end", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/path_ends_at_the_wrong_node"},
		"if at != a.Dst {",
		"if false && at != a.Dst {"},
	{"allocation-allows-self-pair-path", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/self-pair_with_a_path"},
		"if a.IsSelfPair() && len(b.Edges) > 0 {",
		"if false && a.IsSelfPair() && len(b.Edges) > 0 {"},
	{"allocation-skips-flow-sum", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/dropped_bundle"},
		"Flows; n != want {",
		"Flows; false && n != want {"},
	{"maxmin-allows-over-demand", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/rate_over_a_bundle's_demand"},
		"if r := rates[i]; r < 0 || r > demand*(1+eps) {",
		"if r := rates[i]; r < 0 {"},
	{"maxmin-allows-over-capacity", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/rate_over_a_link's_capacity"},
		"if load[l] > capacity(l)*(1+eps) {",
		"if false && load[l] > capacity(l)*(1+eps) {"},
	{"maxmin-allows-no-bottleneck", "internal/verify/verify.go", "./internal/verify", []string{"TestChecksCatchPlantedBugs/under_demand,_no_saturated_link", "TestChecksCatchPlantedBugs/under_demand,_not_the_largest_on_its_saturated_link"},
		"if !bottleneck {",
		"if false && !bottleneck {"},
	// A replay's own checks (scenario).
	{"check-allows-unacked-install", "internal/scenario/scenario.go", "./internal/scenario", []string{"TestEquivalentAndCheckNameWhatBroke"},
		"if in.FlowMods != in.Acks {",
		"if false && in.FlowMods != in.Acks {"},
	{"check-allows-unbalanced-ledger", "internal/scenario/scenario.go", "./internal/scenario", []string{"TestEquivalentAndCheckNameWhatBroke"},
		"if e.WireFlowMods != e.InstallAcks {",
		"if false && e.WireFlowMods != e.InstallAcks {"},
	{"equivalent-ignores-installs", "internal/scenario/scenario.go", "./internal/scenario", []string{"TestEquivalentAndCheckNameWhatBroke"},
		`if name == "Elapsed" || name == "Topology" {`,
		`if name == "Elapsed" || name == "Topology" || name == "Installs" {`},
	{"equivalent-compares-elapsed", "internal/scenario/scenario.go", "./internal/scenario", []string{"TestEquivalentAndCheckNameWhatBroke"},
		`if name == "Elapsed" || name == "Topology" {`,
		`if name == "Topology" {`},
}

func TestMutantsAreKilled(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range catalogue {
		t.Run(m.name, func(t *testing.T) {
			failed := runMutant(t, root, m)
			for _, k := range m.kills {
				if !failed[k] {
					t.Errorf("%s passes with the bug planted", k)
				}
			}
		})
	}
}

// runMutant builds m.pkg's tests with m planted, runs the top-level tests
// of m.kills, and returns the tests and subtests that failed. A mutant that
// does not build fails t.
func runMutant(t *testing.T, root string, m mutant) map[string]bool {
	t.Helper()
	path := filepath.Join(root, m.file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), m.old); n != 1 {
		t.Fatalf("%s holds the snippet %d times, want once: %q", m.file, n, m.old)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(path))
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {path: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	var tops []string
	for _, k := range m.kills {
		top, _, _ := strings.Cut(k, "/")
		tops = append(tops, top)
	}
	run := "^(" + strings.Join(tops, "|") + ")$"
	args := append([]string{"test", "-json", "-count=1", "-vet=off", "-timeout=2m",
		"-overlay", overlayFile, "-run", run}, strings.Fields(m.pkg)...)
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, _ := cmd.Output() // a killed mutant exits nonzero
	failed := map[string]bool{}
	ran, timedOut := false, false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		if ev.Action == "build-fail" {
			t.Fatalf("the mutant does not build:\n%s", stderr.String())
		}
		// A test that never ends is caught too: the timeout's panic lists
		// the tests still running, one per tab-indented line. Any other
		// panic ends the binary with no fail event; its output is
		// attributed to the test that was running.
		if strings.HasPrefix(ev.Output, "panic: test timed out") {
			timedOut = true
		} else if strings.HasPrefix(ev.Output, "panic: ") && ev.Test != "" {
			failed[ev.Test] = true
		} else if running, ok := strings.CutPrefix(ev.Output, "\t\t"); ok && timedOut {
			name, _, _ := strings.Cut(running, " ")
			failed[name] = true
		}
		if ev.Test == "" {
			continue
		}
		ran = true
		if ev.Action == "fail" {
			failed[ev.Test] = true
		}
	}
	if !ran {
		t.Fatalf("no test ran; the mutant may not build:\n%s", stderr.String())
	}
	return failed
}
