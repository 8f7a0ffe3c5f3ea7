// Package utility implements FUBAR's flow utility functions (§2.2 of the
// paper): a bandwidth component and a delay component, each a
// piecewise-linear curve into [0,1], multiplied to produce the flow's
// utility. The bandwidth curve is non-decreasing (more bandwidth never
// hurts) and the delay curve non-increasing (more delay never helps).
//
// The bandwidth curve's inflection point — the lowest bandwidth at which
// the curve reaches its maximum — doubles as the flow's *demand* in the
// traffic model: a flow stops growing once it reaches that rate.
package utility

import (
	"fmt"
	"math"

	"fubar/internal/unit"
)

// Point is a vertex of a piecewise-linear curve.
type Point struct {
	X float64 // domain value (kbps for bandwidth curves, ms for delay curves)
	Y float64 // utility in [0,1]
}

// Curve is a piecewise-linear function into [0,1]. Outside the vertex
// range it clamps to the first/last Y value. The zero value is invalid;
// construct with NewCurve.
type Curve struct {
	pts []Point
}

// NewCurve builds a curve from vertices, which must be strictly increasing
// in X with Y values in [0,1]. At least one vertex is required.
func NewCurve(pts ...Point) (Curve, error) {
	if len(pts) == 0 {
		return Curve{}, fmt.Errorf("utility: curve needs at least one point")
	}
	for i, p := range pts {
		if p.Y < 0 || p.Y > 1 {
			return Curve{}, fmt.Errorf("utility: point %d has Y=%v outside [0,1]", i, p.Y)
		}
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) {
			return Curve{}, fmt.Errorf("utility: point %d has non-finite X", i)
		}
		if i > 0 && pts[i-1].X >= p.X {
			return Curve{}, fmt.Errorf("utility: X values must be strictly increasing (point %d)", i)
		}
	}
	return Curve{pts: append([]Point(nil), pts...)}, nil
}

// MustCurve is NewCurve that panics on error; for package-level defaults.
func MustCurve(pts ...Point) Curve {
	c, err := NewCurve(pts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Valid reports whether the curve was properly constructed.
func (c Curve) Valid() bool { return len(c.pts) > 0 }

// Points returns a copy of the curve's vertices.
func (c Curve) Points() []Point { return append([]Point(nil), c.pts...) }

// Eval evaluates the curve with clamping outside the vertex range.
func (c Curve) Eval(x float64) float64 {
	n := len(c.pts)
	if n == 0 {
		return 0
	}
	if x <= c.pts[0].X {
		return c.pts[0].Y
	}
	if x >= c.pts[n-1].X {
		return c.pts[n-1].Y
	}
	// Curves have a handful of vertices: a linear scan beats binary
	// search and stays allocation-free in the optimizer's hot path.
	i := 1
	for i < n-1 && c.pts[i].X < x {
		i++
	}
	a, b := c.pts[i-1], c.pts[i]
	frac := (x - a.X) / (b.X - a.X)
	return a.Y + frac*(b.Y-a.Y)
}

// MaxY returns the curve's maximum Y value.
func (c Curve) MaxY() float64 {
	max := 0.0
	for _, p := range c.pts {
		if p.Y > max {
			max = p.Y
		}
	}
	return max
}

// Inflection returns the smallest X at which the curve attains its maximum
// Y — for a bandwidth curve, the flow's demand.
func (c Curve) Inflection() float64 {
	max := c.MaxY()
	for _, p := range c.pts {
		if p.Y == max {
			return p.X
		}
	}
	return 0
}

// ScaleX returns a copy of the curve with every X multiplied by f (> 0).
// Scaling a delay curve by 2 "relaxes" it (Fig 6); scaling a bandwidth
// curve rescales the flow's demand.
func (c Curve) ScaleX(f float64) (Curve, error) {
	scaled, _, err := appendScaleX(nil, c, f)
	return scaled, err
}

// appendScaleX is ScaleX building the scaled vertices at the end of pts,
// which it returns grown; the curve shares them.
func appendScaleX(pts []Point, c Curve, f float64) (Curve, []Point, error) {
	if f <= 0 {
		return Curve{}, pts, fmt.Errorf("utility: non-positive X scale %v", f)
	}
	start := len(pts)
	for _, p := range c.pts {
		pts = append(pts, Point{X: p.X * f, Y: p.Y})
	}
	return Curve{pts: pts[start:len(pts):len(pts)]}, pts, nil
}

// NonDecreasing reports whether the curve never decreases (required of
// bandwidth components).
func (c Curve) NonDecreasing() bool {
	for i := 1; i < len(c.pts); i++ {
		if c.pts[i].Y < c.pts[i-1].Y {
			return false
		}
	}
	return true
}

// NonIncreasing reports whether the curve never increases (required of
// delay components).
func (c Curve) NonIncreasing() bool {
	for i := 1; i < len(c.pts); i++ {
		if c.pts[i].Y > c.pts[i-1].Y {
			return false
		}
	}
	return true
}

// Function is a complete per-flow utility function: utility =
// Bandwidth(bw) * Delay(delay).
type Function struct {
	name      string
	bandwidth Curve
	delay     Curve
}

// NewFunction validates the two components: the bandwidth curve must be
// non-decreasing starting at utility 0 is not required, but it must be
// non-decreasing; the delay curve must be non-increasing.
func NewFunction(name string, bandwidth, delay Curve) (Function, error) {
	if !bandwidth.Valid() || !delay.Valid() {
		return Function{}, fmt.Errorf("utility: function %q has an unconstructed component", name)
	}
	if !bandwidth.NonDecreasing() {
		return Function{}, fmt.Errorf("utility: function %q bandwidth component must be non-decreasing", name)
	}
	if !delay.NonIncreasing() {
		return Function{}, fmt.Errorf("utility: function %q delay component must be non-increasing", name)
	}
	return Function{name: name, bandwidth: bandwidth, delay: delay}, nil
}

// MustFunction is NewFunction that panics on error.
func MustFunction(name string, bandwidth, delay Curve) Function {
	f, err := NewFunction(name, bandwidth, delay)
	if err != nil {
		panic(err)
	}
	return f
}

// Name reports the function's descriptive name.
func (f Function) Name() string { return f.name }

// Valid reports whether the function was properly constructed.
func (f Function) Valid() bool { return f.bandwidth.Valid() && f.delay.Valid() }

// Eval computes the utility of a flow receiving per-flow bandwidth bw over
// a path with one-way delay d.
func (f Function) Eval(bw unit.Bandwidth, d unit.Delay) float64 {
	return f.bandwidth.Eval(float64(bw)) * f.delay.Eval(float64(d))
}

// EvalBandwidth evaluates only the bandwidth component.
func (f Function) EvalBandwidth(bw unit.Bandwidth) float64 {
	return f.bandwidth.Eval(float64(bw))
}

// EvalDelay evaluates only the delay component.
func (f Function) EvalDelay(d unit.Delay) float64 {
	return f.delay.Eval(float64(d))
}

// PeakBandwidth returns the bandwidth demand implied by the bandwidth
// component's inflection point: the smallest rate at which more bandwidth
// stops improving utility (§2.2, §2.3).
func (f Function) PeakBandwidth() unit.Bandwidth {
	return unit.Bandwidth(f.bandwidth.Inflection())
}

// WithDelayScaled returns a copy with the delay component's X axis scaled
// by factor (Fig 6's "relaxed delay" uses factor 2).
func (f Function) WithDelayScaled(factor float64) (Function, error) {
	d, err := f.delay.ScaleX(factor)
	if err != nil {
		return Function{}, err
	}
	return Function{name: f.name + "/delay-scaled", bandwidth: f.bandwidth, delay: d}, nil
}

// WithPeakBandwidth returns a copy whose bandwidth component is rescaled so
// its inflection point sits at the given rate. Used when measurement infers
// a different demand than the class default (§2.2's continuous scaling).
func (f Function) WithPeakBandwidth(peak unit.Bandwidth) (Function, error) {
	scaled, _, err := AppendPeakBandwidth(nil, f, peak)
	return scaled, err
}

// AppendPeakBandwidth is f.WithPeakBandwidth(peak) building the rescaled
// bandwidth vertices at the end of pts, a buffer the caller owns, instead
// of in storage of their own, and returning pts grown by them. The function
// shares those vertices: it is valid until the caller overwrites that part
// of pts. An owner that rescales every aggregate every epoch — a
// simulator's demand jitter, an estimator's inferred peaks — truncates one
// buffer and refills it, rebuilding the matrix that holds the functions
// (traffic.Rebuild) at the same time.
func AppendPeakBandwidth(pts []Point, f Function, peak unit.Bandwidth) (Function, []Point, error) {
	cur := f.PeakBandwidth()
	if cur <= 0 {
		return Function{}, pts, fmt.Errorf("utility: function %q has zero peak; cannot rescale", f.name)
	}
	if peak <= 0 {
		return Function{}, pts, fmt.Errorf("utility: non-positive peak %v", peak)
	}
	b, pts, err := appendScaleX(pts, f.bandwidth, float64(peak)/float64(cur))
	if err != nil {
		return Function{}, pts, err
	}
	return Function{name: f.name, bandwidth: b, delay: f.delay}, pts, nil
}
