package scenario

import (
	"context"
	"testing"

	"fubar/internal/core"
	"fubar/internal/telemetry"
)

// TestRefutationKeepsFiring pins how many candidates the warm epochs of
// one HE-31 crisis timeline — benchmark/'s replay-he-crisis instance and
// generator — ask flowmodel to score. Before a failed step refuted the
// bundles it had scored (DESIGN.md "What a failed step proves") the seven
// warm epochs of this timeline collected parentWarmCandidates; the link
// rule took that to 8569 and the level rule to 7808, so the two together
// must keep the count at or under seven tenths of the parent's, or one of
// them has stopped firing. The counts are exact per commit at any worker
// count.
func TestRefutationKeepsFiring(t *testing.T) {
	const parentWarmCandidates = 11335 // at 658c7af; 8569 (−24%) with the link rule, 7808 (−31%) with both
	topo, mat, err := HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tel := telemetry.New()
		counters := func() [3]int64 { // candidates, bundles refuted by link, by level
			c := tel.Snapshot().Counters
			return [3]int64{c["fubar_core_candidates_collected_total"],
				c[`fubar_core_refuted_bundles_total{rule="link"}`], c[`fubar_core_refuted_bundles_total{rule="level"}`]}
		}
		var cold [3]int64
		opts := Options{Core: core.Options{Workers: workers, Telemetry: tel}}
		for er, err := range stream(context.Background(), nil, topo, mat, Crisis(3, 8, 1.3, 3), opts) {
			if err != nil {
				t.Fatal(err)
			}
			if er.Epoch == 0 {
				cold = counters()
			}
		}
		warm := counters()
		for i := range warm {
			warm[i] -= cold[i]
		}
		t.Logf("workers %d: %d candidates, %d bundles refuted by link and %d by level over 7 warm epochs (parent: %d candidates)",
			workers, warm[0], warm[1], warm[2], parentWarmCandidates)
		if warm[0]*10 > parentWarmCandidates*7 {
			t.Errorf("workers %d: warm epochs collected %d candidates, want at most 70%% of the parent's %d",
				workers, warm[0], parentWarmCandidates)
		}
		if warm[1] == 0 || warm[2] == 0 {
			t.Errorf("workers %d: %d bundles refuted by link, %d by level: a rule never fired", workers, warm[1], warm[2])
		}
	}
}
