package flowmodel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fubar/internal/graph"
)

// certifyTerm draws one adversarial fold term: a magnitude anywhere in
// 2^±40, negative half the time when signed.
func certifyTerm(rng *rand.Rand, signed bool) float64 {
	x := math.Ldexp(1+rng.Float64(), rng.Intn(81)-40)
	if signed && rng.Intn(2) == 0 {
		x = -x
	}
	return x
}

// certifyChange draws what a candidate makes of a base term x: a fresh
// term, x nudged by a few ulps or by a relative 2^-k (changes that cancel
// almost all of x), x dropped (0), or, when signed, x negated.
func certifyChange(rng *rand.Rand, x float64, signed bool) float64 {
	switch rng.Intn(5) {
	case 0:
		return certifyTerm(rng, signed)
	case 1:
		for k := rng.Intn(4); k >= 0; k-- {
			x = math.Nextafter(x, math.Inf(1-2*rng.Intn(2)))
		}
		return x
	case 2:
		return x * (1 + math.Ldexp(1-2*rng.Float64(), -rng.Intn(50)))
	case 3:
		return 0
	}
	if signed {
		return -x
	}
	return x / 3
}

// thresholdsAround lists comparison points on and around an exact fold f:
// f itself, one ulp either side, and a point anywhere near it.
func thresholdsAround(rng *rand.Rand, f float64) []float64 {
	return []float64{f, math.Nextafter(f, math.Inf(-1)), math.Nextafter(f, math.Inf(1)), f * (1 + math.Ldexp(1-2*rng.Float64(), -30))}
}

// TestLoadCheckResumsWhatItCannotDecide drives the load check's exact
// fallback, which real loads practically never need: a base whose every
// non-binding link load is NaN gives loadVersus no interval to decide
// from, so every touched and touched-seed link is re-summed over its
// candidate crossers. The scores must still be the full evaluation's bit
// for bit (every promotion the check makes or misses would show).
func TestLoadCheckResumsWhatItCannotDecide(t *testing.T) {
	var calls int
	for seed := int64(1); seed <= 20; seed++ {
		m, bundles, _ := deltaInstance(t, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		var base Base
		m.NewEval().EvaluateBase(bundles, &base)
		for l, binding := range base.binding {
			if !binding {
				base.linkLoad[l] = math.NaN()
			}
		}
		arena, full := m.NewEval(), m.NewEval()
		for move := 0; move < 30; move++ {
			cand := append([]Bundle(nil), bundles...)
			changed := perturb(rng, cand)
			if changed == nil {
				break
			}
			want := full.Evaluate(cand).NetworkUtility
			if got, _ := arena.EvaluateDeltaUtility(arena.Closure(&base), cand, changed, math.Inf(-1)); got != want {
				t.Fatalf("seed %d move %d: utility-only %v != full %v", seed, move, got, want)
			}
			calls++
		}
		if arena.resummed == 0 {
			t.Fatalf("seed %d: no load-check link was re-summed", seed)
		}
	}
	if calls < 400 {
		t.Fatalf("only %d calls", calls)
	}
}

// FuzzCertifiedDecisions checks the two comparisons decided from
// foldInterval instead of the canonical fold against that fold, on
// adversarial vectors: terms of mixed magnitudes, changes that cancel
// almost all of a term or drop it, big terms with small changes, and
// thresholds on the exact index-order fold and one ulp either side of it.
//
//   - Utility: a base of n signed terms, folded in index order, and a
//     dirty subset changed in random order. foldInterval's upper end,
//     divided by a weight, must not fall under the exact fold's quotient,
//     so "at most the bound" is never decided for a utility above it.
//   - Link load: per link, the base crossers' rates and the candidate's
//     (rates moved, crossers dropped and added), the changes summed
//     through addMove in random order, as sumMoves sums them. Wherever
//     loadVersus decides, the exact fold of the candidate's rates must be
//     on the side it says. The scratch starts at most three load checks
//     before its epoch wraps, over stale stamps and sums that would alias the
//     epochs after the wrap, and links left unchanged in a check must be
//     decided from their base load alone.
func FuzzCertifiedDecisions(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(40))
	f.Add(int64(2), uint8(0), uint8(255))
	f.Add(int64(3), uint8(7), uint8(8))
	f.Add(int64(4), uint8(1), uint8(120))
	f.Fuzz(func(t *testing.T, seed int64, toWrap, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)

		// Utility.
		for round := 0; round < 8; round++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = certifyTerm(rng, true)
				if i > 0 && rng.Intn(4) == 0 {
					x[i] = -x[i-1] * (1 + math.Ldexp(rng.Float64(), -40)) // cancels its neighbour
				}
			}
			var total, abs float64
			for _, v := range x {
				total += v
				abs += math.Abs(v)
			}
			y := slices.Clone(x)
			var inc, incAbs float64
			for _, a := range rng.Perm(n)[:1+rng.Intn(n)] {
				y[a] = certifyChange(rng, x[a], true)
				inc += y[a] - x[a]
				incAbs += math.Abs(y[a]) + math.Abs(x[a])
			}
			var exact float64
			for _, v := range y {
				exact += v
			}
			w := certifyTerm(rng, false)
			lo, hi := foldInterval(total, inc, abs+incAbs, n)
			if lo > exact || hi < exact {
				t.Fatalf("utility round %d: fold %v outside [%v, %v]", round, exact, lo, hi)
			}
			for _, bound := range thresholdsAround(rng, exact/w) {
				if hi/w <= bound && exact/w > bound {
					t.Fatalf("utility round %d: %v settled at most the bound %v, exact %v", round, hi/w, bound, exact/w)
				}
			}
		}

		// Link load, through a load check's scratch.
		nL := 4 + n%29
		d := deltaScratch{movedMark: make([]uint32, nL), wDelta: make([]float64, nL), dDelta: make([]float64, nL)}
		d.movedEpoch = math.MaxUint32 - uint32(toWrap%3) // wrap within three checks
		for l := range d.movedMark {
			d.movedMark[l] = uint32(1 + l%4)
			d.wDelta[l] = math.Ldexp(float64(1-2*(l%2)), 60) // dwarfs any load drawn here
		}
		type crosser struct {
			idx  int
			rate float64
		}
		for check := 0; check < 12; check++ {
			d.bumpMoved()
			for l := 0; l < nL; l++ {
				var old []crosser
				for i := 0; i < 2*n; i++ {
					if rng.Intn(2) == 0 {
						old = append(old, crosser{i, certifyTerm(rng, false)})
					}
				}
				var base float64
				for _, c := range old {
					base += c.rate
				}
				cand := slices.Clone(old)
				if rng.Intn(3) > 0 { // else: nothing crossing the link changed
					var changes [][2]float64
					for k := range cand {
						if rng.Intn(3) == 0 {
							r0 := cand[k].rate
							r := max(certifyChange(rng, r0, false), 0)
							changes = append(changes, [2]float64{r - r0, r + r0})
							cand[k].rate = r
						}
					}
					for i := 0; i < 2*n; i++ {
						if rng.Intn(8) == 0 && !slices.ContainsFunc(old, func(c crosser) bool { return c.idx == i }) {
							r := certifyTerm(rng, false)
							cand = append(cand, crosser{i, r})
							changes = append(changes, [2]float64{r, r})
						}
					}
					slices.SortFunc(cand, func(a, b crosser) int { return a.idx - b.idx })
					rng.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
					for _, c := range changes {
						d.addMove(graph.EdgeID(l), c[0], c[1])
					}
				}
				var exact float64
				for _, c := range cand {
					exact += c.rate
				}
				for _, thr := range append(thresholdsAround(rng, exact), base) {
					switch d.loadVersus(int32(l), base, 2*n, thr) {
					case 1:
						if exact < thr {
							t.Fatalf("check %d link %d: load %v decided at least %v", check, l, exact, thr)
						}
					case -1:
						if exact >= thr {
							t.Fatalf("check %d link %d: load %v decided under %v", check, l, exact, thr)
						}
					}
				}
			}
		}
	})
}
