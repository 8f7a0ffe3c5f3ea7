// Package metrics provides the small statistics toolkit the evaluation
// harness uses: time series of optimizer progress, empirical CDFs (Figs 6
// and 7) and summary statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Sample is one time-series observation.
type Sample struct {
	T time.Duration
	V float64
}

// Series is an append-only time series.
type Series struct {
	name    string
	samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name reports the series name.
func (s *Series) Name() string { return s.name }

// Add appends an observation.
func (s *Series) Add(t time.Duration, v float64) {
	s.samples = append(s.samples, Sample{T: t, V: v})
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Samples returns the observations in insertion order; the caller owns the
// slice.
func (s *Series) Samples() []Sample { return append([]Sample(nil), s.samples...) }

// Last returns the most recent sample, or false when empty.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// At linearly interpolates the series value at time t, clamping outside
// the observed range. Returns false when the series is empty.
func (s *Series) At(t time.Duration) (float64, bool) {
	n := len(s.samples)
	if n == 0 {
		return 0, false
	}
	if t <= s.samples[0].T {
		return s.samples[0].V, true
	}
	if t >= s.samples[n-1].T {
		return s.samples[n-1].V, true
	}
	i := sort.Search(n, func(i int) bool { return s.samples[i].T >= t })
	a, b := s.samples[i-1], s.samples[i]
	if b.T == a.T {
		return b.V, true
	}
	frac := float64(t-a.T) / float64(b.T-a.T)
	return a.V + frac*(b.V-a.V), true
}

// CDF is an empirical cumulative distribution over float64 values.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from values (copied and sorted).
func NewCDF(values []float64) *CDF {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return &CDF{sorted: v}
}

// Len reports the number of values.
func (c *CDF) Len() int { return len(c.sorted) }

// Values returns the sorted values; the caller owns the slice.
func (c *CDF) Values() []float64 { return append([]float64(nil), c.sorted...) }

// P returns the fraction of values <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (q in [0,1]) by nearest-rank with linear
// interpolation. Empty CDFs return 0.
func (c *CDF) Quantile(q float64) float64 {
	n := len(c.sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[n-1]
	}
	pos := q * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return c.sorted[n-1]
	}
	return c.sorted[i]*(1-frac) + c.sorted[i+1]*frac
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Summary holds basic descriptive statistics.
type Summary struct {
	N              int
	Min, Max, Mean float64
	Stddev         float64
	P10, P50, P90  float64
}

// Summarize computes descriptive statistics of values.
func Summarize(values []float64) Summary {
	s := Summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	cdf := NewCDF(values)
	s.Min = cdf.sorted[0]
	s.Max = cdf.sorted[len(cdf.sorted)-1]
	var sum float64
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	s.P10 = cdf.Quantile(0.10)
	s.P50 = cdf.Quantile(0.50)
	s.P90 = cdf.Quantile(0.90)
	return s
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f p10=%.4f p50=%.4f p90=%.4f max=%.4f",
		s.N, s.Mean, s.Stddev, s.Min, s.P10, s.P50, s.P90, s.Max)
}

// WeightedMean computes sum(w*v)/sum(w); zero when weights sum to zero.
func WeightedMean(values, weights []float64) float64 {
	if len(values) != len(weights) {
		panic("metrics: mismatched lengths")
	}
	var sv, sw float64
	for i, v := range values {
		sv += v * weights[i]
		sw += weights[i]
	}
	if sw == 0 {
		return 0
	}
	return sv / sw
}
