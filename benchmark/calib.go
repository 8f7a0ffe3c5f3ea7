package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// calibrator times a fixed reference kernel in short slices between a
// run's operations. The sandbox this benchmark runs in changes speed by
// ±15% over minutes, and by more from one millisecond to the next, with
// identical work (README "Nominal speed"); the kernel runs at whatever
// speed the machine has while the workload runs, so dividing a workload
// time by the kernel's time removes that drift.
//
// The kernel is the benchmark's own code, but it shares a process and a
// machine with the program under test, which could slow it — and so
// earn a normalisation bonus — by evicting its buffer from the caches,
// through the other callers of a many-caller workload, or by leaving a
// collection or other background work running between operations. The
// first two can not reach it: every slice starts with an untimed
// iteration that brings the buffer back, and a slice runs only when no
// operation is in flight, every other caller stopped at the end of its
// own (others). The third is measured, not assumed away: every
// quietEvery-th slice is followed at once by a second one taken after a
// forced collection has completed, and the ratio of the two medians is
// reported (coupling) and compared by -compare. README "Nominal speed"
// has what it reads today.
type calibrator struct {
	buf     []float64
	idx     uint32
	acc     float64
	last    time.Time
	others  sync.RWMutex // held shared around every operation of a many-caller workload
	samples []float64    // ms per kernel iteration, one per slice
	// paired[i] was taken straight after an operation and quiet[i] right
	// after it, behind a forced collection.
	paired, quiet []float64
}

const (
	calibEvery = 200 * time.Millisecond // at most one slice per this much workload time
	calibIters = 3                      // timed kernel iterations per slice; their median is the sample
	quietEvery = 5                      // one slice in this many is paired with a quiesced one
)

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]float64, 1<<16), last: time.Now()}
	for i := range c.buf {
		c.buf[i] = float64(i%97) / 97
	}
	return c
}

// iteration is the reference kernel: 2^16 rounds of data-dependent
// loads, a branch, multiply-adds and a store over a 512 KiB array —
// about half a millisecond of the pointer-chasing float work the optimizer
// itself is made of.
func (c *calibrator) iteration() {
	x, idx, acc := c.buf, c.idx, c.acc
	mask := uint32(len(x) - 1)
	for i := uint32(0); i < 1<<16; i++ {
		idx = idx*1664525 + 1013904223
		v := x[idx&mask]
		if v > 0.5 {
			acc += v * 1.0000001
		} else {
			acc -= v * 0.9999999
		}
		x[(idx>>7)&mask] = acc - math.Floor(acc)
	}
	c.idx, c.acc = idx, acc
}

// slice is one sample: an untimed iteration that brings the buffer back
// into the caches, then the median of calibIters timed ones.
func (c *calibrator) slice() float64 {
	c.iteration()
	var t [calibIters]float64
	for i := range t {
		t0 := time.Now()
		c.iteration()
		t[i] = ms(time.Since(t0))
	}
	return median(t[:])
}

// tick samples the kernel if the workload has run for calibEvery since
// the last sample, and reports whether it did. One caller calls it,
// between its operations and outside any timed interval. A nil
// calibrator does nothing.
func (c *calibrator) tick() bool {
	if c == nil || time.Since(c.last) < calibEvery {
		return false
	}
	c.others.Lock()
	v := c.slice()
	c.samples = append(c.samples, v)
	if len(c.samples)%quietEvery == 0 {
		runtime.GC()
		c.paired = append(c.paired, v)
		c.quiet = append(c.quiet, c.slice())
	}
	c.others.Unlock()
	c.last = time.Now()
	return true
}

// calibrate gives the calibrator its turn between two operations. On a
// traced pass the time it took is a span of its own under parent, so
// the harness's share of a pass is attributed like any layer's.
func (e env) calibrate(parent spanID) {
	t0 := time.Now()
	if e.cal.tick() && e.rec != nil {
		e.rec.add("bench.calibrate", parent, 0, t0, time.Now())
	}
}

// hold and release bracket one operation of a many-caller workload:
// hold returns once no slice is running or waiting to run, so that a
// slice finds every caller between operations. Time spent held up is
// part of the same span.
func (e env) hold(parent spanID) {
	if e.cal == nil {
		return
	}
	t0 := time.Now()
	e.cal.others.RLock()
	if t1 := time.Now(); e.rec != nil && t1.Sub(t0) > 100*time.Microsecond {
		e.rec.add("bench.calibrate", parent, 0, t0, t1)
	}
}

func (e env) release() {
	if e.cal != nil {
		e.cal.others.RUnlock()
	}
}

// coupling is the kernel's time between operations over its time a few
// milliseconds later with the collector quiesced: 1 when the program
// under test leaves nothing running that reaches the reference. One
// run's value is good to about ±5%; medians over runs are what to read.
func (c *calibrator) coupling() float64 { return ratio(median(c.paired), median(c.quiet)) }

// refNominalMs is the kernel iteration time normalised values are
// scaled to: its time on the 2-core box the benchmark was sized on, so
// that there a normalised millisecond is about a real one.
const refNominalMs = 0.6

// refMs is the median time of one kernel iteration during the run.
func (c *calibrator) refMs() float64 { return median(c.samples) }

// norm scales a duration measured during the run to the nominal machine
// speed (and a rate the other way: divide by norm(1)).
func (c *calibrator) norm(v float64) float64 { return v * refNominalMs / c.refMs() }
