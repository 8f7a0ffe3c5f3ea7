// Package measure reconstructs FUBAR's traffic matrix from switch
// counters (§2.1–2.2 of the paper): per-aggregate bandwidth and flow
// counts come straight from rule counters; each aggregate's bandwidth
// *demand* — the inflection point of its utility function's bandwidth
// component — is inferred from epochs in which the aggregate ran over an
// uncongested path yet failed to use more ("we can infer the inflection
// point of the bandwidth curve when an aggregate is using an uncongested
// path and fails to utilize it").
package measure

import (
	"fmt"
	"slices"

	"fubar/internal/sdnsim"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// AggregateKey identifies an aggregate to the estimator.
type AggregateKey struct {
	Src, Dst topology.NodeID
	Class    utility.Class
}

// Estimator accumulates epoch observations into demand estimates. A
// long-lived owner re-points one estimator at each matrix with Reset: it
// keeps its buffers, Observe's accumulators and Matrix's aggregates
// among them.
type Estimator struct {
	// Alpha is the EWMA smoothing factor for uncongested-rate estimates
	// in (0, 1]; higher reacts faster. Default 0.3.
	Alpha float64

	keys  []AggregateKey
	state []aggEstimate
	accs  []aggObservation    // Observe's per-aggregate fold
	aggs  []traffic.Aggregate // the estimate's staging buffer (traffic.Rebuild copies it)
	// pts holds the rescaled bandwidth curves of the last RebuildMatrix's
	// matrix; the next one overwrites them.
	pts []utility.Point
}

// defaultAlpha is a new estimator's Alpha.
const defaultAlpha = 0.3

// aggObservation is one aggregate's share of one epoch's counters.
type aggObservation struct {
	bytes     float64
	flows     int
	congested bool
	haveTraf  bool
}

type aggEstimate struct {
	flows     int
	havePeak  bool
	peakKbps  float64 // EWMA of per-flow rate over uncongested epochs
	lastKbps  float64 // most recent per-flow rate (any epoch)
	epochs    int
	congested int // epochs observed congested
}

// NewEstimator builds an estimator for the aggregates the controller
// installed rules for, in aggregate-ID order.
func NewEstimator(keys []AggregateKey) *Estimator {
	return &Estimator{
		Alpha: defaultAlpha,
		keys:  append([]AggregateKey(nil), keys...),
		state: make([]aggEstimate, len(keys)),
	}
}

// Reset makes the estimator the one NewEstimator(KeysFromMatrix(mat))
// builds, on the buffers it already has. The zero Estimator is ready for
// it.
func (e *Estimator) Reset(mat *traffic.Matrix) {
	e.Alpha = defaultAlpha
	e.keys = appendKeys(e.keys[:0], mat)
	e.state = slices.Grow(e.state[:0], len(e.keys))[:len(e.keys)]
	clear(e.state)
}

// KeysFromMatrix extracts estimator keys from a matrix (the controller
// knows who talks to whom — it set up the rules).
func KeysFromMatrix(mat *traffic.Matrix) []AggregateKey {
	return appendKeys(make([]AggregateKey, 0, mat.NumAggregates()), mat)
}

// appendKeys appends mat's aggregate keys to keys in aggregate-ID order.
func appendKeys(keys []AggregateKey, mat *traffic.Matrix) []AggregateKey {
	for i := range mat.NumAggregates() {
		a := mat.Aggregate(traffic.AggregateID(i))
		keys = append(keys, AggregateKey{Src: a.Src, Dst: a.Dst, Class: a.Class})
	}
	return keys
}

// NumAggregates reports how many aggregates the estimator tracks.
func (e *Estimator) NumAggregates() int { return len(e.keys) }

// Observe folds one epoch of switch counters into the estimates.
func (e *Estimator) Observe(stats *sdnsim.EpochStats) error {
	if stats == nil {
		return fmt.Errorf("measure: nil stats")
	}
	secs := stats.Duration.Seconds()
	if secs <= 0 {
		return fmt.Errorf("measure: non-positive epoch duration %v", stats.Duration)
	}
	// Aggregate per-aggregate: total bytes, flows, and whether every rule
	// carrying it was uncongested.
	e.accs = slices.Grow(e.accs[:0], len(e.keys))[:len(e.keys)]
	accs := e.accs
	clear(accs)
	for _, r := range stats.Rules {
		if int(r.Agg) < 0 || int(r.Agg) >= len(accs) {
			return fmt.Errorf("measure: rule references unknown aggregate %d", r.Agg)
		}
		a := &accs[r.Agg]
		a.bytes += r.Bytes
		a.flows += r.Flows
		a.congested = a.congested || r.Congested
		a.haveTraf = true
	}
	for i := range accs {
		a := &accs[i]
		if !a.haveTraf || a.flows == 0 {
			continue
		}
		st := &e.state[i]
		st.flows = a.flows
		st.epochs++
		kbps := a.bytes / 125 / secs
		perFlow := kbps / float64(a.flows)
		st.lastKbps = perFlow
		if a.congested {
			st.congested++
			continue
		}
		// Uncongested epoch: the aggregate used all it wanted, so the
		// per-flow rate approximates the demand peak.
		if !st.havePeak {
			st.peakKbps = perFlow
			st.havePeak = true
		} else {
			st.peakKbps = (1-e.Alpha)*st.peakKbps + e.Alpha*perFlow
		}
	}
	return nil
}

// CongestedFraction reports the fraction of observed epochs in which the
// aggregate crossed a congested link.
func (e *Estimator) CongestedFraction(id traffic.AggregateID) float64 {
	st := e.state[id]
	if st.epochs == 0 {
		return 0
	}
	return float64(st.congested) / float64(st.epochs)
}

// Matrix builds the estimated traffic matrix: class-default utility
// shapes rescaled to the inferred per-flow demand peaks. Aggregates never
// observed uncongested fall back to the larger of the class default and
// the last measured rate — a congested flow wants at least what it got.
// The matrix is new and the caller's.
func (e *Estimator) Matrix(topo *topology.Topology) (*traffic.Matrix, error) {
	m := new(traffic.Matrix)
	if _, err := e.build(m, nil, topo); err != nil {
		return nil, err
	}
	return m, nil
}

// RebuildMatrix is e.Matrix(topo) rebuilt into m, a matrix the caller owns
// (traffic.Rebuild), with the rescaled curves' vertices in storage the
// estimator keeps: m is valid until the next RebuildMatrix on e overwrites
// them. What a closed loop that estimates every epoch calls, so no epoch
// allocates a matrix.
func RebuildMatrix(m *traffic.Matrix, e *Estimator, topo *topology.Topology) error {
	pts, err := e.build(m, e.pts[:0], topo)
	e.pts = pts
	return err
}

// build rebuilds m into the estimate, appending the rescaled bandwidth
// curves' vertices to pts, which it returns grown.
func (e *Estimator) build(m *traffic.Matrix, pts []utility.Point, topo *topology.Topology) ([]utility.Point, error) {
	e.aggs = slices.Grow(e.aggs[:0], len(e.keys))[:len(e.keys)]
	aggs := e.aggs
	clear(aggs)
	for i, k := range e.keys {
		st := e.state[i]
		if st.epochs == 0 {
			return pts, fmt.Errorf("measure: aggregate %d never observed", i)
		}
		fn := utility.ForClass(k.Class)
		peak := float64(fn.PeakBandwidth())
		switch {
		case st.havePeak && st.peakKbps > 0:
			peak = st.peakKbps
		case st.lastKbps > peak:
			peak = st.lastKbps
		}
		if peak > 0 {
			var err error
			if fn, pts, err = utility.AppendPeakBandwidth(pts, fn, unit.Bandwidth(peak)); err != nil {
				return pts, fmt.Errorf("measure: aggregate %d: %v", i, err)
			}
		}
		flows := st.flows
		if flows <= 0 {
			flows = 1
		}
		aggs[i] = traffic.Aggregate{
			Src: k.Src, Dst: k.Dst, Class: k.Class,
			Flows: flows, Fn: fn, Weight: 1,
		}
	}
	return pts, traffic.Rebuild(m, topo, aggs)
}
