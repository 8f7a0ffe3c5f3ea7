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
// warm epochs of this timeline collected parentWarmCandidates; the rule must
// keep the count at or under nine tenths of that, or it has stopped firing.
// The counts are exact per commit at any worker count.
func TestRefutationKeepsFiring(t *testing.T) {
	const parentWarmCandidates = 11335 // at 658c7af; 8569 when the rule landed (−24%)
	topo, mat, err := HEBenchInstance(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tel := telemetry.New()
		counters := func() (candidates, refuted int64) {
			c := tel.Snapshot().Counters
			return c["fubar_core_candidates_collected_total"], c["fubar_core_refuted_bundles_total"]
		}
		var warm, warmRefuted int64
		opts := Options{Core: core.Options{Workers: workers, Telemetry: tel}}
		for er, err := range Stream(context.Background(), nil, topo, mat, Crisis(3, 8, 1.3, 3), opts) {
			if err != nil {
				t.Fatal(err)
			}
			if er.Epoch == 0 {
				c, r := counters()
				warm, warmRefuted = -c, -r
			}
		}
		c, r := counters()
		warm, warmRefuted = warm+c, warmRefuted+r
		t.Logf("workers %d: %d candidates and %d refuted bundles over 7 warm epochs (parent: %d candidates)",
			workers, warm, warmRefuted, parentWarmCandidates)
		if warm*10 > parentWarmCandidates*9 {
			t.Errorf("workers %d: warm epochs collected %d candidates, want at most 90%% of the parent's %d",
				workers, warm, parentWarmCandidates)
		}
		if warmRefuted == 0 {
			t.Errorf("workers %d: no bundle was refuted", workers)
		}
	}
}
