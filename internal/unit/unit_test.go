package unit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthConversions(t *testing.T) {
	b := 1500 * Kbps
	if got := b.Mbps(); got != 1.5 {
		t.Errorf("Mbps() = %v, want 1.5", got)
	}
	if got := b.Kbps(); got != 1500 {
		t.Errorf("Kbps() = %v, want 1500", got)
	}
	if got := (2 * Gbps).Mbps(); got != 2000 {
		t.Errorf("Gbps->Mbps = %v, want 2000", got)
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{50 * Kbps, "50kbps"},
		{1500 * Kbps, "1.5Mbps"},
		{100 * Mbps, "100Mbps"},
		{2 * Gbps, "2Gbps"},
		{0, "0kbps"},
		{0.5 * Kbps, "0.5kbps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%v kbps).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseBandwidth(t *testing.T) {
	cases := []struct {
		in   string
		want Bandwidth
	}{
		{"100Mbps", 100 * Mbps},
		{"100mbps", 100 * Mbps},
		{" 50 kbps ", 50 * Kbps},
		{"1.5Gbps", 1500 * Mbps},
		{"2500", 2500 * Kbps},
		{"1000bps", 1 * Kbps},
	}
	for _, c := range cases {
		got, err := ParseBandwidth(c.in)
		if err != nil {
			t.Errorf("ParseBandwidth(%q) error: %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseBandwidthErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "-5Mbps", "Mbps", "12qps", "nan", "NaNMbps", "inf", "+InfGbps", "1e305Gbps"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q) succeeded, want error", in)
		}
	}
}

func TestParseBandwidthRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		b := Bandwidth(raw%10_000_000) * Kbps
		got, err := ParseBandwidth(b.String())
		if err != nil {
			return false
		}
		// String() keeps three decimals of the chosen unit, so allow
		// 0.1% relative error.
		if b == 0 {
			return got == 0
		}
		return math.Abs(float64(got-b))/float64(b) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayConversions(t *testing.T) {
	d := 250 * Millisecond
	if got := d.Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
	if got := d.Duration(); got != 250*time.Millisecond {
		t.Errorf("Duration() = %v, want 250ms", got)
	}
}

func TestDelayString(t *testing.T) {
	cases := []struct {
		in   Delay
		want string
	}{
		{100 * Millisecond, "100ms"},
		{2 * Second, "2s"},
		{1500 * Millisecond, "1.5s"},
		{0, "0ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%vms).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseDelay(t *testing.T) {
	cases := []struct {
		in   string
		want Delay
	}{
		{"5ms", 5 * Millisecond},
		{"1.2s", 1200 * Millisecond},
		{"30", 30 * Millisecond},
		{" 100 ms", 100 * Millisecond},
	}
	for _, c := range cases {
		got, err := ParseDelay(c.in)
		if err != nil {
			t.Errorf("ParseDelay(%q) error: %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("ParseDelay(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseDelayErrors(t *testing.T) {
	for _, in := range []string{"", "fast", "-1ms", "ms", "nan", "nanms", "infs", "1e308s"} {
		if _, err := ParseDelay(in); err == nil {
			t.Errorf("ParseDelay(%q) succeeded, want error", in)
		}
	}
}

func TestDelayDurationRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		return Delay(ms).Duration() == time.Duration(ms)*time.Millisecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
