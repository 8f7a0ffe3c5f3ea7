package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("utility")
	if s.Name() != "utility" {
		t.Errorf("Name = %q", s.Name())
	}
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series")
	}
	s.Add(0, 0.5)
	s.Add(time.Second, 0.7)
	s.Add(2*time.Second, 0.9)
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	first := s.Samples()[0]
	last, _ := s.Last()
	if first.V != 0.5 || last.V != 0.9 {
		t.Errorf("first/last = %v/%v", first.V, last.V)
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 0)
	s.Add(10*time.Second, 10)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{-time.Second, 0},
		{0, 0},
		{5 * time.Second, 5},
		{10 * time.Second, 10},
		{20 * time.Second, 10},
		{2500 * time.Millisecond, 2.5},
	}
	for _, c := range cases {
		got, ok := s.At(c.t)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v,%v want %v", c.t, got, ok, c.want)
		}
	}
	empty := NewSeries("e")
	if _, ok := empty.At(0); ok {
		t.Error("At on empty series returned ok")
	}
}

func TestSeriesSamplesCopy(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 1)
	got := s.Samples()
	got[0].V = 99
	if v, _ := s.At(0); v != 1 {
		t.Error("Samples leaked internal storage")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if c.Len() != 3 {
		t.Errorf("Len = %d", c.Len())
	}
	vals := c.Values()
	if !sort.Float64sAreSorted(vals) {
		t.Error("Values not sorted")
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.P(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Q(0) = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("Q(1) = %v", got)
	}
	if got := c.Median(); got != 30 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Errorf("Q(.25) = %v", got)
	}
	empty := NewCDF(nil)
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := empty.P(1); got != 0 {
		t.Errorf("empty P = %v", got)
	}
}

// Property: P is monotone and Quantile inverts P approximately.
func TestCDFProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, math.Mod(v, 1000))
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		if c.P(math.Inf(-1)) != 0 || c.P(math.Inf(1)) != 1 {
			return false
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1} {
			v := c.Quantile(q)
			if v < prev {
				return false // quantile must be monotone
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Stddev-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary N != 0")
	}
}

func TestWeightedMean(t *testing.T) {
	got := WeightedMean([]float64{1, 3}, []float64{1, 1})
	if got != 2 {
		t.Errorf("unweighted = %v", got)
	}
	got = WeightedMean([]float64{1, 3}, []float64{3, 1})
	if got != 1.5 {
		t.Errorf("weighted = %v", got)
	}
	if got := WeightedMean(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	WeightedMean([]float64{1}, []float64{1, 2})
}

// TestEdgeCases pins the degenerate inputs every caller of the metrics
// package eventually hits: empty distributions, single samples, and
// zero-weight means.
func TestEdgeCases(t *testing.T) {
	// Empty CDF: every accessor is total — zero values, never a panic.
	empty := NewCDF(nil)
	if empty.Len() != 0 || len(empty.Values()) != 0 {
		t.Errorf("empty CDF Len/Values = %d/%d", empty.Len(), len(empty.Values()))
	}
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	for _, x := range []float64{math.Inf(-1), -1, 0, 1, math.Inf(1)} {
		if got := empty.P(x); got != 0 {
			t.Errorf("empty P(%v) = %v, want 0", x, got)
		}
	}
	if got := empty.Median(); got != 0 {
		t.Errorf("empty Median = %v, want 0", got)
	}

	// Single-sample CDF: every quantile is the sample; P is a step.
	one := NewCDF([]float64{7})
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := one.Quantile(q); got != 7 {
			t.Errorf("single Quantile(%v) = %v, want 7", q, got)
		}
	}
	if one.P(6.9) != 0 || one.P(7) != 1 {
		t.Errorf("single P step wrong: P(6.9)=%v P(7)=%v", one.P(6.9), one.P(7))
	}

	// Single-sample Summarize: min=max=mean=quantiles, stddev exactly 0
	// (the n-1 divisor path must not divide by zero).
	s := Summarize([]float64{42})
	if s.N != 1 || s.Min != 42 || s.Max != 42 || s.Mean != 42 {
		t.Errorf("single summary = %+v", s)
	}
	if s.Stddev != 0 {
		t.Errorf("single-sample stddev = %v, want 0", s.Stddev)
	}
	if s.P10 != 42 || s.P50 != 42 || s.P90 != 42 {
		t.Errorf("single-sample quantiles = %v/%v/%v, want 42", s.P10, s.P50, s.P90)
	}

	// Zero-sum weights: defined as 0, not NaN.
	if got := WeightedMean([]float64{1, 2}, []float64{0, 0}); got != 0 {
		t.Errorf("zero-weight mean = %v, want 0", got)
	}

	// Mismatched lengths panic in both orientations.
	for _, lens := range [][2]int{{2, 1}, {1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lengths %v did not panic", lens)
				}
			}()
			WeightedMean(make([]float64, lens[0]), make([]float64, lens[1]))
		}()
	}
}

// TestSeriesAtStep pins At across a step: two samples at one instant
// read as the earlier value at that instant and the later one after it.
func TestSeriesAtStep(t *testing.T) {
	s := NewSeries("step")
	s.Add(0, 0)
	s.Add(5*time.Second, 1)
	s.Add(5*time.Second, 3)
	s.Add(10*time.Second, 3)
	for _, c := range []struct {
		t    time.Duration
		want float64
	}{
		{2500 * time.Millisecond, 0.5},
		{5 * time.Second, 1},
		{5*time.Second + time.Nanosecond, 3},
		{7500 * time.Millisecond, 3},
	} {
		if got, ok := s.At(c.t); !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v,%v want %v", c.t, got, ok, c.want)
		}
	}
	if last, _ := s.Last(); last.T != 10*time.Second || last.V != 3 {
		t.Errorf("Last = %+v", last)
	}
}

func TestCDFOwnsItsValues(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("NewCDF sorted the caller's slice: %v", in)
	}
	in[0] = -100
	if c.Quantile(0) != 1 || c.P(0) != 0 {
		t.Errorf("NewCDF aliases the caller's slice: Q(0)=%v P(0)=%v", c.Quantile(0), c.P(0))
	}
	vals := c.Values()
	vals[0] = 50
	if c.Median() != 2 || c.Quantile(0) != 1 {
		t.Errorf("Values aliases the CDF: median %v Q(0) %v", c.Median(), c.Quantile(0))
	}
}
