package flowmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fubar/internal/traffic"
)

// TestEvalRebindMatchesFreshArena walks one arena and one Base through the
// models a replay's epochs build — the same links under a matrix that
// gains aggregates (more than any of the arena's per-aggregate arrays was
// sized for), loses them again, then another topology with another link
// count — and requires every capture, delta, utility-only score and commit
// to equal a fresh arena's full evaluation bit for bit, with no fallback.
func TestEvalRebindMatchesFreshArena(t *testing.T) {
	big, _, _ := deltaInstance(t, 3)
	half, err := big.Matrix().Subset(func(a traffic.Aggregate) bool { return a.ID%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	small, err := New(big.Topology(), half)
	if err != nil {
		t.Fatal(err)
	}
	other, _, _ := deltaInstance(t, 4)
	if other.Topology().NumLinks() == big.Topology().NumLinks() {
		t.Fatal("seeds 3 and 4 draw the same link count; pick another pair")
	}
	rng := rand.New(rand.NewSource(8))
	var kept *Eval
	var base Base
	for step, m := range []*Model{small, big, small, other, big} {
		if kept == nil {
			kept = m.NewEval()
		} else {
			kept.Rebind(m)
		}
		kept.ResetDeltaStats()
		fresh := m.NewEval()
		list, _ := denseList(t, rng, m)
		tag := fmt.Sprintf("step %d (%d aggregates, %d links)", step, m.Matrix().NumAggregates(), m.Topology().NumLinks())
		requireIdentical(t, tag+" capture", fresh.Evaluate(list), kept.EvaluateBase(list, &base))
		requireBase(t, tag, m, &base, list)
		for k := 0; k < 30; k++ {
			cand := append([]Bundle(nil), list...)
			changed := perturb(rng, cand)
			if changed == nil {
				continue
			}
			want := fresh.Evaluate(cand)
			requireIdentical(t, tag+" delta", want, kept.EvaluateDelta(kept.Closure(&base), cand, changed))
			if u, fell := kept.EvaluateDeltaUtility(kept.Closure(&base), cand, changed, math.Inf(-1)); u != want.NetworkUtility || fell {
				t.Fatalf("%s: utility-only %v (fallback %v), full %v", tag, u, fell, want.NetworkUtility)
			}
			if k%5 == 0 {
				res, patched := kept.CommitDelta(&base, cand, changed)
				if !patched {
					t.Fatalf("%s: commit fell back", tag)
				}
				requireIdentical(t, tag+" commit", want, res)
				requireBase(t, tag+" commit", m, &base, cand)
				list = cand
			}
		}
		if st := kept.DeltaStats(); st.Calls == 0 || st.Fallbacks != 0 {
			t.Fatalf("%s: %+v", tag, st)
		}
	}
}
