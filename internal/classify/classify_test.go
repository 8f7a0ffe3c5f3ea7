package classify

import (
	"math"
	"testing"
	"testing/quick"

	"fubar/internal/unit"
	"fubar/internal/utility"
)

func mustNew(t *testing.T, ovs ...Override) *Classifier {
	t.Helper()
	c, err := New(ovs...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestOverrideWinsOverEverything(t *testing.T) {
	c := mustNew(t, Override{
		DstName: "lon",
		PortLo:  8000, PortHi: 9000,
		Class: utility.ClassRealTime,
	})
	d := c.Classify(Features{
		DstName: "lon", Port: 8443,
		MeanRatePerFlow: 900 * unit.Kbps, // behaviour would say large-file
	})
	if d.Source != SourceOverride || d.Class != utility.ClassRealTime || d.Confidence != 1 {
		t.Fatalf("override not applied: %+v", d)
	}
}

func TestOverrideCustomFunction(t *testing.T) {
	bw := utility.MustCurve(utility.Point{}, utility.Point{X: 64, Y: 1})
	dl := utility.MustCurve(utility.Point{Y: 1}, utility.Point{X: 50, Y: 0})
	fn := utility.MustFunction("strict-rtc", bw, dl)
	c := mustNew(t, Override{PortLo: 5004, PortHi: 5004, Class: utility.ClassRealTime, Fn: &fn})
	d := c.Classify(Features{Port: 5004})
	if d.Fn.Name() != "strict-rtc" {
		t.Fatalf("custom function not attached: got %q", d.Fn.Name())
	}
	// Stricter delay cliff than the default: zero utility at 60 ms.
	if u := d.Fn.Eval(64, 60); u != 0 {
		t.Fatalf("custom delay curve not in effect: utility %.3f at 60ms", u)
	}
}

func TestOverridePriorityOrder(t *testing.T) {
	c := mustNew(t,
		Override{DstName: "ams", Class: utility.ClassLargeFile},
		Override{Class: utility.ClassRealTime}, // catch-all, second
	)
	if d := c.Classify(Features{DstName: "ams"}); d.Class != utility.ClassLargeFile {
		t.Fatalf("first override should win: %+v", d)
	}
	if d := c.Classify(Features{DstName: "par"}); d.Class != utility.ClassRealTime {
		t.Fatalf("catch-all should apply: %+v", d)
	}
}

func TestPortTier(t *testing.T) {
	c := mustNew(t)
	cases := []struct {
		port int
		want utility.Class
	}{
		{5060, utility.ClassRealTime},
		{3478, utility.ClassRealTime},
		{22, utility.ClassRealTime},
		{20, utility.ClassLargeFile},
		{873, utility.ClassLargeFile},
	}
	for _, tc := range cases {
		d := c.Classify(Features{Port: tc.port})
		if d.Class != tc.want || d.Source != SourcePort {
			t.Errorf("port %d: got %v from %v, want %v from port tier", tc.port, d.Class, d.Source, tc.want)
		}
	}
}

func TestBehaviourTier(t *testing.T) {
	c := mustNew(t)
	// Steady, slow: real-time.
	d := c.Classify(Features{MeanRatePerFlow: 40 * unit.Kbps, RateCV: 0.1})
	if d.Class != utility.ClassRealTime || d.Source != SourceBehaviour {
		t.Fatalf("steady slow flow: %+v", d)
	}
	// Fast: large file.
	d = c.Classify(Features{MeanRatePerFlow: 900 * unit.Kbps, RateCV: 0.8})
	if d.Class != utility.ClassLargeFile || d.Source != SourceBehaviour {
		t.Fatalf("fast flow: %+v", d)
	}
	// Slow but bursty: not real-time, falls to bulk default.
	d = c.Classify(Features{MeanRatePerFlow: 40 * unit.Kbps, RateCV: 2.0})
	if d.Class != utility.ClassBulk || d.Source != SourceDefault {
		t.Fatalf("bursty slow flow: %+v", d)
	}
	// Unknown rate: default.
	d = c.Classify(Features{})
	if d.Class != utility.ClassBulk || d.Source != SourceDefault {
		t.Fatalf("featureless flow: %+v", d)
	}
}

func TestCongestionErodesBehaviourConfidence(t *testing.T) {
	c := mustNew(t)
	clear := c.Classify(Features{MeanRatePerFlow: 900 * unit.Kbps, CongestedFraction: 0})
	jammed := c.Classify(Features{MeanRatePerFlow: 900 * unit.Kbps, CongestedFraction: 0.8})
	if jammed.Confidence >= clear.Confidence {
		t.Fatalf("congestion did not erode confidence: %.2f >= %.2f", jammed.Confidence, clear.Confidence)
	}
}

func TestNewValidatesOverrides(t *testing.T) {
	if _, err := New(Override{PortLo: 100, PortHi: 10}); err == nil {
		t.Fatal("inverted port range accepted")
	}
	if _, err := New(Override{PortLo: -1, PortHi: 10}); err == nil {
		t.Fatal("negative port accepted")
	}
	if _, err := New(Override{PortLo: 1, PortHi: 70000}); err == nil {
		t.Fatal("port > 65535 accepted")
	}
}

func TestFeaturesFromRates(t *testing.T) {
	f := FeaturesFromRates([]float64{100, 100, 100}, 2, 0.25)
	if got := float64(f.MeanRatePerFlow); math.Abs(got-50) > 1e-9 {
		t.Fatalf("mean per-flow rate %.2f, want 50", got)
	}
	if f.RateCV > 1e-12 {
		t.Fatalf("constant series CV %.4f, want 0", f.RateCV)
	}
	if f.CongestedFraction != 0.25 || f.Flows != 2 {
		t.Fatalf("passthrough fields wrong: %+v", f)
	}
	// Variable series has positive CV.
	f = FeaturesFromRates([]float64{50, 150}, 1, 0)
	if f.RateCV <= 0 {
		t.Fatalf("variable series CV %.4f, want > 0", f.RateCV)
	}
	// Degenerate inputs.
	if f := FeaturesFromRates(nil, 3, 0); f.MeanRatePerFlow != 0 || f.RateCV != -1 {
		t.Fatalf("empty series: %+v", f)
	}
	if f := FeaturesFromRates([]float64{10}, 0, 0); f.MeanRatePerFlow != 0 {
		t.Fatalf("zero flows: %+v", f)
	}
	if f := FeaturesFromRates([]float64{10}, 2, 0); f.RateCV != -1 {
		t.Fatalf("single sample should have unknown CV: %+v", f)
	}
}

// TestDecisionAlwaysValid property-checks the classifier over arbitrary
// features: some decision always comes back, with a known source, a
// confidence in [0,1], and a usable utility function.
func TestDecisionAlwaysValid(t *testing.T) {
	c := mustNew(t, Override{DstName: "x", Class: utility.ClassRealTime})
	prop := func(port uint16, ratePerFlow float64, cv float64, congested float64, dst uint8) bool {
		f := Features{
			Port:              int(port),
			DstName:           string(rune('a' + dst%4)),
			MeanRatePerFlow:   unit.Bandwidth(math.Abs(ratePerFlow)),
			RateCV:            cv,
			CongestedFraction: congested,
		}
		d := c.Classify(f)
		if d.Confidence < 0 || d.Confidence > 1 {
			return false
		}
		if d.Source > SourceDefault {
			return false
		}
		// The attached function must evaluate in [0,1].
		u := d.Fn.Eval(f.MeanRatePerFlow, 100)
		return u >= 0 && u <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSourceString(t *testing.T) {
	for s, want := range map[Source]string{
		SourceOverride:  "override",
		SourcePort:      "port",
		SourceBehaviour: "behaviour",
		SourceDefault:   "default",
		Source(99):      "Source(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Source(%d).String() = %q, want %q", s, got, want)
		}
	}
}
