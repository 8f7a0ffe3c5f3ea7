// Package unit defines the scalar quantities used throughout the FUBAR
// reproduction: bandwidth and one-way delay.
//
// Bandwidth is carried as kilobits per second in a float64 and delay as
// milliseconds in a float64. Both are small named types so that function
// signatures stay self-describing without the cost (or the import cycle
// risk) of time.Duration arithmetic in the optimizer's hot paths.
package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Bandwidth is a data rate in kilobits per second.
type Bandwidth float64

// Convenience bandwidth constants.
const (
	Kbps Bandwidth = 1
	Mbps Bandwidth = 1000 * Kbps
	Gbps Bandwidth = 1000 * Mbps
)

// Kbps reports the bandwidth in kilobits per second.
func (b Bandwidth) Kbps() float64 { return float64(b) }

// Mbps reports the bandwidth in megabits per second.
func (b Bandwidth) Mbps() float64 { return float64(b) / 1000 }

// Gbps reports the bandwidth in gigabits per second.
func (b Bandwidth) Gbps() float64 { return float64(b) / 1e6 }

// String formats the bandwidth with an auto-selected unit suffix.
func (b Bandwidth) String() string {
	abs := math.Abs(float64(b))
	switch {
	case abs >= float64(Gbps):
		return trimFloat(b.Gbps()) + "Gbps"
	case abs >= float64(Mbps):
		return trimFloat(b.Mbps()) + "Mbps"
	default:
		return trimFloat(b.Kbps()) + "kbps"
	}
}

// ParseBandwidth parses strings such as "100Mbps", "50kbps", "1.5Gbps" or
// "2500" (bare numbers are kbps). Unit matching is case-insensitive.
func ParseBandwidth(s string) (Bandwidth, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("unit: empty bandwidth %q", s)
	}
	lower := strings.ToLower(t)
	mult := Kbps
	switch {
	case strings.HasSuffix(lower, "gbps"):
		mult, lower = Gbps, strings.TrimSuffix(lower, "gbps")
	case strings.HasSuffix(lower, "mbps"):
		mult, lower = Mbps, strings.TrimSuffix(lower, "mbps")
	case strings.HasSuffix(lower, "kbps"):
		mult, lower = Kbps, strings.TrimSuffix(lower, "kbps")
	case strings.HasSuffix(lower, "bps"):
		mult, lower = Kbps/1000, strings.TrimSuffix(lower, "bps")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(lower), 64)
	if err != nil {
		return 0, fmt.Errorf("unit: bad bandwidth %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("unit: negative bandwidth %q", s)
	}
	// ParseFloat accepts "nan" and "inf", and the multiplier can overflow.
	b := Bandwidth(v) * mult
	if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
		return 0, fmt.Errorf("unit: bandwidth %q is not a finite number", s)
	}
	return b, nil
}

// Delay is a one-way propagation delay in milliseconds.
type Delay float64

// Convenience delay constants.
const (
	Millisecond Delay = 1
	Second      Delay = 1000 * Millisecond
)

// Seconds reports the delay in seconds.
func (d Delay) Seconds() float64 { return float64(d) / 1000 }

// Duration converts the delay to a time.Duration.
func (d Delay) Duration() time.Duration {
	return time.Duration(float64(d) * float64(time.Millisecond))
}

// String formats the delay in milliseconds (or seconds above one second).
func (d Delay) String() string {
	if math.Abs(float64(d)) >= float64(Second) {
		return trimFloat(d.Seconds()) + "s"
	}
	return trimFloat(float64(d)) + "ms"
}

// ParseDelay parses strings such as "5ms", "1.2s" or "30" (bare numbers
// are milliseconds).
func ParseDelay(s string) (Delay, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("unit: empty delay %q", s)
	}
	mult := Millisecond
	switch {
	case strings.HasSuffix(t, "ms"):
		t = strings.TrimSuffix(t, "ms")
	case strings.HasSuffix(t, "s"):
		mult, t = Second, strings.TrimSuffix(t, "s")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("unit: bad delay %q: %v", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("unit: negative delay %q", s)
	}
	d := Delay(v) * mult
	if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
		return 0, fmt.Errorf("unit: delay %q is not a finite number", s)
	}
	return d, nil
}

// trimFloat formats v with up to three decimals, trimming trailing zeros.
func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
