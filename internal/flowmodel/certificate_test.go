package flowmodel_test

import (
	"math/rand"
	"testing"

	"fubar/internal/flowmodel"
	"fubar/internal/verify"
)

// TestMaxMinCertificate holds the water-filling to the max-min certificate
// (verify.MaxMin) on 300 random instances: the full evaluation of each, and
// the result of every CommitDelta along a run of random moves committed
// into its base.
func TestMaxMinCertificate(t *testing.T) {
	const eps = 1e-9
	commits := 0
	for seed := int64(1); seed <= 300; seed++ {
		topo, mat, list := flowmodel.RandomInstance(t, seed)
		m, err := flowmodel.New(topo, mat)
		if err != nil {
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		arena := m.NewEval()
		if err := verify.MaxMin(topo, mat, list, arena.Evaluate(list).BundleRate, eps); err != nil {
			t.Fatalf("seed %d, Evaluate: %v", seed, err)
		}
		var base flowmodel.Base
		arena.EvaluateBase(list, &base)
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 5; k++ {
			changed := flowmodel.Perturb(rng, list)
			if changed == nil {
				break
			}
			res, _ := arena.CommitDelta(&base, list, changed)
			if err := verify.MaxMin(topo, mat, list, res.BundleRate, eps); err != nil {
				t.Fatalf("seed %d, commit %d: %v", seed, k, err)
			}
			commits++
		}
	}
	if commits < 300 {
		t.Fatalf("only %d commits certified", commits)
	}
}

// TestMaxMinCertificateScalePresets holds the full fill of the scale
// presets' lowest-delay lists — 538, 1,694 and 5,480 seeded links, the
// largest fills any instance here runs — to the same certificate.
func TestMaxMinCertificateScalePresets(t *testing.T) {
	for _, p := range flowmodel.ScalePresets {
		m, list := p.Instance(t, 1)
		if err := verify.MaxMin(m.Topology(), m.Matrix(), list, m.NewEval().Evaluate(list).BundleRate, 1e-9); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}
