package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"fubar/internal/flowmodel"
)

// TestSolutionResultEvaluatesBundles pins what the final compaction must
// keep: Solution.Result is the evaluation of Solution.Bundles, bit for bit
// in every field and index-aligned with the list, whichever list the run
// evaluated last. mpls.SyncSolution, the closed loop's reserved paths and
// fubar's table all index Result by Bundles. The final list holds more
// placeholders than the last commit's did when the passes after it
// appended paths; at least one run must end that way.
func TestSolutionResultEvaluatesBundles(t *testing.T) {
	type instance struct {
		name  string
		model *flowmodel.Model
	}
	var insts []instance
	for seed := int64(1); seed <= 8; seed++ {
		_, _, m := propInstance(t, seed)
		insts = append(insts, instance{fmt.Sprintf("prop-%d", seed), m})
	}
	for _, seed := range []int64{1, 2, 3} {
		insts = append(insts, instance{fmt.Sprintf("sparse-%d", seed), sparseInstance(t, seed)})
	}
	insts = append(insts, instance{"mild", mildInstance(t)})

	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	grown := 0
	for _, in := range insts {
		tag := in.name
		committedLen := 0 // the list length the last snapshot was taken over
		trace := func(s Snapshot) { committedLen = len(s.Result.BundleRate) }
		o, err := New(in.model, Options{Workers: 1, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := o.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		got, want := sol.Result, in.model.NewEval().Evaluate(sol.Bundles)
		for _, f := range []struct {
			name string
			ok   bool
		}{
			{"BundleRate", sameBits(got.BundleRate, want.BundleRate)},
			{"BundleSatisfied", slices.Equal(got.BundleSatisfied, want.BundleSatisfied)},
			{"LinkLoad", sameBits(got.LinkLoad, want.LinkLoad)},
			{"LinkDemand", sameBits(got.LinkDemand, want.LinkDemand)},
			{"Congested", slices.Equal(got.Congested, want.Congested)},
			{"IsCongested", slices.Equal(got.IsCongested, want.IsCongested)},
			{"AggUtility", sameBits(got.AggUtility, want.AggUtility)},
			{"NetworkUtility", sameBits([]float64{got.NetworkUtility}, []float64{want.NetworkUtility})},
			{"ActualUtilization", sameBits([]float64{got.ActualUtilization}, []float64{want.ActualUtilization})},
			{"DemandedUtilization", sameBits([]float64{got.DemandedUtilization}, []float64{want.DemandedUtilization})},
		} {
			if !f.ok {
				t.Errorf("%s: Solution.Result.%s is not the evaluation of Solution.Bundles", tag, f.name)
			}
		}
		if len(o.buildStepBundles()) > committedLen {
			grown++
		}
	}
	if grown == 0 {
		t.Error("no run appended a path after its last commit: compacting a list with fresh placeholders went untested")
	}
	t.Logf("%d of %d runs appended a path after their last commit", grown, len(insts))
}
