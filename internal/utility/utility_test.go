package utility

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"fubar/internal/unit"
)

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewCurve(); err == nil {
		t.Error("empty curve accepted")
	}
	if _, err := NewCurve(Point{0, 0}, Point{0, 1}); err == nil {
		t.Error("duplicate X accepted")
	}
	if _, err := NewCurve(Point{1, 0}, Point{0, 1}); err == nil {
		t.Error("decreasing X accepted")
	}
	if _, err := NewCurve(Point{0, -0.1}); err == nil {
		t.Error("Y < 0 accepted")
	}
	if _, err := NewCurve(Point{0, 1.1}); err == nil {
		t.Error("Y > 1 accepted")
	}
	if _, err := NewCurve(Point{math.NaN(), 0.5}); err == nil {
		t.Error("NaN X accepted")
	}
	if _, err := NewCurve(Point{0, 0}, Point{10, 1}); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
}

func TestCurveEval(t *testing.T) {
	c := MustCurve(Point{0, 0}, Point{100, 1})
	cases := []struct{ x, want float64 }{
		{-10, 0}, {0, 0}, {50, 0.5}, {100, 1}, {500, 1}, {25, 0.25},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCurveEvalMultiSegment(t *testing.T) {
	c := MustCurve(Point{0, 0}, Point{10, 0.8}, Point{20, 0.8}, Point{40, 1})
	if got := c.Eval(15); got != 0.8 {
		t.Errorf("flat segment Eval(15) = %v, want 0.8", got)
	}
	if got := c.Eval(30); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Eval(30) = %v, want 0.9", got)
	}
}

func TestCurveInflection(t *testing.T) {
	c := MustCurve(Point{0, 0}, Point{50, 1}, Point{80, 1})
	if got := c.Inflection(); got != 50 {
		t.Errorf("Inflection = %v, want 50", got)
	}
	flat := MustCurve(Point{10, 0.5})
	if got := flat.Inflection(); got != 10 {
		t.Errorf("single-point Inflection = %v, want 10", got)
	}
}

func TestCurveScaleX(t *testing.T) {
	c := MustCurve(Point{30, 1}, Point{100, 0})
	s, err := c.ScaleX(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Eval(60); got != 1 {
		t.Errorf("scaled Eval(60) = %v, want 1 (plateau stretched to 60)", got)
	}
	if got := s.Eval(200); got != 0 {
		t.Errorf("scaled Eval(200) = %v, want 0", got)
	}
	if _, err := c.ScaleX(0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestMonotonicityPredicates(t *testing.T) {
	up := MustCurve(Point{0, 0}, Point{1, 1})
	down := MustCurve(Point{0, 1}, Point{1, 0})
	if !up.NonDecreasing() || up.NonIncreasing() {
		t.Error("up predicates wrong")
	}
	if !down.NonIncreasing() || down.NonDecreasing() {
		t.Error("down predicates wrong")
	}
}

func TestNewFunctionValidation(t *testing.T) {
	up := MustCurve(Point{0, 0}, Point{1, 1})
	down := MustCurve(Point{0, 1}, Point{1, 0})
	if _, err := NewFunction("bad", down, down); err == nil {
		t.Error("decreasing bandwidth component accepted")
	}
	if _, err := NewFunction("bad", up, up); err == nil {
		t.Error("increasing delay component accepted")
	}
	if _, err := NewFunction("ok", up, down); err != nil {
		t.Errorf("valid function rejected: %v", err)
	}
	if _, err := NewFunction("zero", Curve{}, down); err == nil {
		t.Error("unconstructed component accepted")
	}
}

func TestRealTimeShape(t *testing.T) {
	f := RealTime()
	// Figure 1's anchor points.
	if got := f.Eval(0, 0); got != 0 {
		t.Errorf("U(0kbps) = %v, want 0", got)
	}
	if got := f.Eval(50*unit.Kbps, 0); got != 1 {
		t.Errorf("U(50kbps, 0ms) = %v, want 1", got)
	}
	if got := f.Eval(200*unit.Kbps, 0); got != 1 {
		t.Errorf("U(200kbps, 0ms) = %v, want 1 (bounded demand)", got)
	}
	if got := f.Eval(50*unit.Kbps, 100*unit.Millisecond); got != 0 {
		t.Errorf("U(50kbps, 100ms) = %v, want 0 (delay cliff)", got)
	}
	if got := f.Eval(50*unit.Kbps, 150*unit.Millisecond); got != 0 {
		t.Errorf("U beyond cliff = %v, want 0", got)
	}
	if got := f.PeakBandwidth(); got != 50*unit.Kbps {
		t.Errorf("PeakBandwidth = %v, want 50kbps", got)
	}
	// Multiplicative composition: half bandwidth at a mid delay.
	u := f.Eval(25*unit.Kbps, 65*unit.Millisecond)
	want := 0.5 * f.EvalDelay(65*unit.Millisecond)
	if math.Abs(u-want) > 1e-12 {
		t.Errorf("composition broken: %v != %v", u, want)
	}
}

func TestBulkShape(t *testing.T) {
	f := Bulk()
	if got := f.PeakBandwidth(); got != 200*unit.Kbps {
		t.Errorf("PeakBandwidth = %v, want 200kbps", got)
	}
	if got := f.Eval(200*unit.Kbps, 50*unit.Millisecond); got != 1 {
		t.Errorf("U(200kbps, 50ms) = %v, want 1", got)
	}
	// Bulk tolerates delay that kills real-time.
	if got := f.EvalDelay(150 * unit.Millisecond); got <= 0.9 {
		t.Errorf("bulk delay(150ms) = %v, want > 0.9", got)
	}
	if got := f.EvalDelay(2 * unit.Second); got != 0 {
		t.Errorf("bulk delay(2s) = %v, want 0", got)
	}
}

func TestLargeFileShape(t *testing.T) {
	f := LargeFile(2000 * unit.Kbps)
	if got := f.PeakBandwidth(); got != 2000*unit.Kbps {
		t.Errorf("PeakBandwidth = %v, want 2Mbps", got)
	}
	if got := f.Eval(1000*unit.Kbps, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("U(1Mbps) = %v, want 0.5", got)
	}
}

func TestForClass(t *testing.T) {
	if got := ForClass(ClassRealTime).Name(); got != "real-time" {
		t.Errorf("ForClass(RealTime) = %q", got)
	}
	if got := ForClass(ClassBulk).Name(); got != "bulk" {
		t.Errorf("ForClass(Bulk) = %q", got)
	}
	if got := ForClass(ClassLargeFile).PeakBandwidth(); got != 1000*unit.Kbps {
		t.Errorf("ForClass(LargeFile) peak = %v", got)
	}
	if got := Class(99).String(); got != "unknown" {
		t.Errorf("Class(99) = %q", got)
	}
	for _, c := range []Class{ClassRealTime, ClassBulk, ClassLargeFile} {
		if c.String() == "unknown" {
			t.Errorf("class %d renders unknown", c)
		}
	}
}

func TestWithDelayScaled(t *testing.T) {
	f := RealTime()
	g, err := f.WithDelayScaled(2)
	if err != nil {
		t.Fatal(err)
	}
	// At 150ms the original is dead; the relaxed one is alive.
	if got := f.EvalDelay(150 * unit.Millisecond); got != 0 {
		t.Errorf("original delay(150ms) = %v, want 0", got)
	}
	if got := g.EvalDelay(150 * unit.Millisecond); got <= 0 {
		t.Errorf("relaxed delay(150ms) = %v, want > 0", got)
	}
	// Bandwidth component untouched.
	if g.PeakBandwidth() != f.PeakBandwidth() {
		t.Error("delay scaling changed bandwidth peak")
	}
	if _, err := f.WithDelayScaled(-1); err == nil {
		t.Error("negative scale accepted")
	}
}

func TestWithPeakBandwidth(t *testing.T) {
	f := Bulk()
	g, err := f.WithPeakBandwidth(500 * unit.Kbps)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.PeakBandwidth(); got != 500*unit.Kbps {
		t.Errorf("rescaled peak = %v, want 500kbps", got)
	}
	if got := g.Eval(250*unit.Kbps, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("rescaled U(250kbps) = %v, want 0.5", got)
	}
	if _, err := f.WithPeakBandwidth(0); err == nil {
		t.Error("zero peak accepted")
	}
}

// TestAppendPeakBandwidthMatchesWithPeakBandwidth: functions rescaled into
// one vertex buffer, truncated and refilled round after round, equal the
// ones WithPeakBandwidth builds in storage of their own; a function built
// earlier in a round reads the same after the buffer grows under it, and
// a refused rescale leaves the buffer as it was.
func TestAppendPeakBandwidthMatchesWithPeakBandwidth(t *testing.T) {
	classes := []Function{RealTime(), Bulk(), LargeFile(1000), LargeFile(2000)}
	var pts []Point
	for round := 0; round < 5; round++ {
		pts = pts[:0]
		var got, want []Function
		for i := 0; i < 3+round*4; i++ {
			f := classes[(i+round)%len(classes)]
			peak := unit.Bandwidth(10 + 37*(i+1)*(round+1))
			w, err := f.WithPeakBandwidth(peak)
			if err != nil {
				t.Fatal(err)
			}
			var g Function
			if g, pts, err = AppendPeakBandwidth(pts, f, peak); err != nil {
				t.Fatal(err)
			}
			got, want = append(got, g), append(want, w)
		}
		n := len(pts)
		if _, pts2, err := AppendPeakBandwidth(pts, Bulk(), 0); err == nil || len(pts2) != n {
			t.Fatalf("round %d: a zero peak was accepted (%v) or grew the buffer to %d", round, err, len(pts2))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d function %d: %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// Property: for every class, Eval is within [0,1], non-decreasing in
// bandwidth, and non-increasing in delay.
func TestEvalProperties(t *testing.T) {
	classes := []Function{RealTime(), Bulk(), LargeFile(1000), LargeFile(2000)}
	f := func(rawBW1, rawBW2 uint16, rawD1, rawD2 uint16) bool {
		bw1 := unit.Bandwidth(rawBW1 % 4000)
		bw2 := unit.Bandwidth(rawBW2 % 4000)
		if bw1 > bw2 {
			bw1, bw2 = bw2, bw1
		}
		d1 := unit.Delay(rawD1 % 3000)
		d2 := unit.Delay(rawD2 % 3000)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		for _, fn := range classes {
			u := fn.Eval(bw1, d1)
			if u < 0 || u > 1 {
				return false
			}
			if fn.Eval(bw2, d1) < fn.Eval(bw1, d1)-1e-12 {
				return false // bandwidth monotonicity violated
			}
			if fn.Eval(bw1, d2) > fn.Eval(bw1, d1)+1e-12 {
				return false // delay monotonicity violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Eval at PeakBandwidth with zero delay is the max utility 1 for
// the built-in classes.
func TestPeakIsSaturating(t *testing.T) {
	for _, fn := range []Function{RealTime(), Bulk(), LargeFile(1500)} {
		if got := fn.Eval(fn.PeakBandwidth(), 0); got != 1 {
			t.Errorf("%s: U(peak, 0) = %v, want 1", fn.Name(), got)
		}
		if got := fn.Eval(fn.PeakBandwidth()*2, 0); got != 1 {
			t.Errorf("%s: U(2*peak, 0) = %v, want 1", fn.Name(), got)
		}
	}
}

func TestCurvePointsCopy(t *testing.T) {
	c := MustCurve(Point{0, 0}, Point{1, 1})
	pts := c.Points()
	pts[0].Y = 0.9
	if c.Eval(0) != 0 {
		t.Error("Points() leaked internal storage")
	}
}
