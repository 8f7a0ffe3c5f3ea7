package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of samples (p in [0,1]):
// the smallest sample with at least p of the distribution at or below
// it. It returns 0 for an empty slice — the value every span-derived
// metric reports on a workload whose path does not cross that layer.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), because that is the rule the acceptance check for this
// benchmark is written in.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1)) - float64(4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ratio is a/b with 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
