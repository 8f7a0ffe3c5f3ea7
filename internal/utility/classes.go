package utility

import "fubar/internal/unit"

// Class labels the traffic classes the evaluation mixes (§3): interactive
// real-time flows, elastic-but-bounded bulk transfers, and the rare large
// file-transfer aggregates with a higher bandwidth peak.
type Class uint8

// Traffic classes.
const (
	ClassRealTime Class = iota
	ClassBulk
	ClassLargeFile
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassRealTime:
		return "real-time"
	case ClassBulk:
		return "bulk"
	case ClassLargeFile:
		return "large-file"
	default:
		return "unknown"
	}
}

// The class defaults, built once: a Function is immutable, so every caller
// may share one.
var (
	realTime = MustFunction("real-time",
		MustCurve(Point{X: 0, Y: 0}, Point{X: 50, Y: 1}),
		MustCurve(Point{X: 30, Y: 1}, Point{X: 100, Y: 0}),
	)
	bulk = MustFunction("bulk",
		MustCurve(Point{X: 0, Y: 0}, Point{X: 200, Y: 1}),
		MustCurve(Point{X: 100, Y: 1}, Point{X: 2000, Y: 0}),
	)
	largeFile = LargeFile(1000 * unit.Kbps)
)

// RealTime reproduces Figure 1: utility grows linearly to 1 at 50 kbps of
// per-flow bandwidth; the delay component holds at 1 up to 30 ms one-way
// and collapses to 0 at 100 ms — an interactive flow is useless past that.
func RealTime() Function { return realTime }

// Bulk reproduces Figure 2: a bulk-transfer flow needs more bandwidth
// (peak 200 kbps) but tolerates delay, decaying slowly to 0 at 2 s — the
// "default delay curve" of §2.2.
func Bulk() Function { return bulk }

// LargeFile is the §3 large file-transfer class: the bulk delay curve with
// a much higher bandwidth peak (the paper draws 1 or 2 Mbps).
func LargeFile(peak unit.Bandwidth) Function {
	return MustFunction("large-file",
		MustCurve(Point{X: 0, Y: 0}, Point{X: float64(peak), Y: 1}),
		MustCurve(Point{X: 100, Y: 1}, Point{X: 2000, Y: 0}),
	)
}

// ForClass returns the default function for a class. LargeFile defaults to
// a 1 Mbps peak; use LargeFile directly for other peaks.
func ForClass(c Class) Function {
	switch c {
	case ClassRealTime:
		return RealTime()
	case ClassBulk:
		return Bulk()
	case ClassLargeFile:
		return largeFile
	default:
		return Bulk()
	}
}
