// Package traffic models the traffic matrix FUBAR optimizes: aggregates of
// flows sharing an entry POP, exit POP and traffic class (§2.1, §3). Each
// aggregate carries a flow count, a utility function and a weight used when
// averaging network utility ("weighted by number of flows", §3; Fig 5
// raises the weight of large aggregates to prioritize them).
package traffic

import (
	"fmt"

	"fubar/internal/topology"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// AggregateID indexes an aggregate within its Matrix; dense in
// [0, NumAggregates).
type AggregateID int32

// Aggregate is a set of flows sharing source, destination and class.
type Aggregate struct {
	ID    AggregateID
	Src   topology.NodeID
	Dst   topology.NodeID
	Class utility.Class
	// Flows is the approximate number of flows in the aggregate (§2.1's
	// "approximate flow counts").
	Flows int
	// Fn maps per-flow bandwidth and path delay to utility.
	Fn utility.Function
	// Weight scales this aggregate's contribution to network utility.
	// The default 1 makes network utility the flow-count-weighted mean.
	Weight float64
}

// DemandPerFlow is the bandwidth one flow wants: the inflection point of
// the bandwidth utility component (§2.2).
func (a Aggregate) DemandPerFlow() unit.Bandwidth { return a.Fn.PeakBandwidth() }

// Demand is the aggregate's total bandwidth demand.
func (a Aggregate) Demand() unit.Bandwidth {
	return a.Fn.PeakBandwidth() * unit.Bandwidth(a.Flows)
}

// IsSelfPair reports whether the aggregate starts and ends at the same POP
// (such aggregates never enter the backbone and always have utility 1).
func (a Aggregate) IsSelfPair() bool { return a.Src == a.Dst }

// Matrix is a traffic matrix bound to a topology. A matrix has one owner:
// whoever built it. Every Matrix handed out — a Session's, a generator's,
// one returned by a method — is immutable; only its owner may Rebuild it,
// and then only once nothing else reads it.
type Matrix struct {
	topo *topology.Topology
	aggs []Aggregate
}

// NewMatrix builds a matrix over the topology from the given aggregates,
// assigning dense IDs in order. Aggregates must reference valid nodes and
// have positive flow counts and weights. It is Rebuild on a new Matrix.
func NewMatrix(topo *topology.Topology, aggs []Aggregate) (*Matrix, error) {
	m := new(Matrix)
	if err := Rebuild(m, topo, aggs); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebuild rewrites m, a matrix the caller owns, into the one
// NewMatrix(topo, aggs) builds, reusing m's aggregate storage: what a replay
// epoch's owner — the scenario engine, a simulator, an estimator — does
// with the matrix it rebuilds every epoch. Nothing may still read m: a
// Model or a simulator bound to it sees the new contents. On error m is
// invalid until the next successful Rebuild. It is a function and not a
// method so that no holder of a *Matrix can rewrite one it does not own.
func Rebuild(m *Matrix, topo *topology.Topology, aggs []Aggregate) error {
	m.aggs = append(m.aggs[:0], aggs...)
	return m.bind(topo)
}

// adopt builds the matrix NewMatrix(topo, aggs) builds on aggs itself: the
// generators hand over the slice they just drew, which nothing else holds,
// instead of having it copied.
func adopt(topo *topology.Topology, aggs []Aggregate) (*Matrix, error) {
	m := &Matrix{aggs: aggs}
	if err := m.bind(topo); err != nil {
		return nil, err
	}
	return m, nil
}

// bind binds m's aggregates to topo, assigning dense IDs in order and the
// default weight, and validates the result.
func (m *Matrix) bind(topo *topology.Topology) error {
	m.topo = topo
	for i := range m.aggs {
		m.aggs[i].ID = AggregateID(i)
		if m.aggs[i].Weight == 0 {
			m.aggs[i].Weight = 1
		}
	}
	return m.Validate()
}

// Topology returns the topology the matrix is bound to.
func (m *Matrix) Topology() *topology.Topology { return m.topo }

// NumAggregates reports the number of aggregates.
func (m *Matrix) NumAggregates() int { return len(m.aggs) }

// Aggregate returns the aggregate with the given ID.
func (m *Matrix) Aggregate(id AggregateID) Aggregate { return m.aggs[id] }

// Utility evaluates aggregate id's utility function (Aggregate.Fn) at
// per-flow bandwidth bw and delay d where the matrix keeps it: what a loop
// over bundles calls instead of copying the whole Aggregate out with
// Aggregate.
func (m *Matrix) Utility(id AggregateID, bw unit.Bandwidth, d unit.Delay) float64 {
	return m.aggs[id].Fn.Eval(bw, d)
}

// Aggregates returns all aggregates in ID order. The caller owns the slice.
func (m *Matrix) Aggregates() []Aggregate { return append([]Aggregate(nil), m.aggs...) }

// TotalFlows sums flow counts over all aggregates.
func (m *Matrix) TotalFlows() int {
	n := 0
	for _, a := range m.aggs {
		n += a.Flows
	}
	return n
}

// TotalDemand sums bandwidth demand over all aggregates (self-pairs
// excluded — they never touch a link).
func (m *Matrix) TotalDemand() unit.Bandwidth {
	var d unit.Bandwidth
	for _, a := range m.aggs {
		if !a.IsSelfPair() {
			d += a.Demand()
		}
	}
	return d
}

// CountClass returns how many aggregates carry the given class.
func (m *Matrix) CountClass(c utility.Class) int {
	n := 0
	for _, a := range m.aggs {
		if a.Class == c {
			n++
		}
	}
	return n
}

// Validate checks matrix invariants.
func (m *Matrix) Validate() error {
	if m.topo == nil {
		return fmt.Errorf("traffic: matrix has no topology")
	}
	n := m.topo.NumNodes()
	for i, a := range m.aggs {
		if a.ID != AggregateID(i) {
			return fmt.Errorf("traffic: aggregate %d has ID %d", i, a.ID)
		}
		if int(a.Src) < 0 || int(a.Src) >= n || int(a.Dst) < 0 || int(a.Dst) >= n {
			return fmt.Errorf("traffic: aggregate %d endpoints out of range", i)
		}
		if a.Flows <= 0 {
			return fmt.Errorf("traffic: aggregate %d has %d flows", i, a.Flows)
		}
		if a.Weight <= 0 {
			return fmt.Errorf("traffic: aggregate %d has weight %v", i, a.Weight)
		}
		if !a.Fn.Valid() {
			return fmt.Errorf("traffic: aggregate %d has no utility function", i)
		}
	}
	return nil
}

// WithWeights returns a copy of the matrix with weights rewritten by f,
// which receives each aggregate and returns its new weight. Used by the
// Fig 5 prioritization experiment.
func (m *Matrix) WithWeights(f func(Aggregate) float64) (*Matrix, error) {
	aggs := append([]Aggregate(nil), m.aggs...)
	for i := range aggs {
		w := f(aggs[i])
		if w <= 0 {
			return nil, fmt.Errorf("traffic: WithWeights produced weight %v for aggregate %d", w, i)
		}
		aggs[i].Weight = w
	}
	return &Matrix{topo: m.topo, aggs: aggs}, nil
}

// WithDelayScaled returns a copy in which aggregates selected by the
// predicate have their delay utility component stretched by factor
// (Fig 6's relaxed-delay experiment doubles small flows' delay parameter).
func (m *Matrix) WithDelayScaled(factor float64, match func(Aggregate) bool) (*Matrix, error) {
	aggs := append([]Aggregate(nil), m.aggs...)
	for i := range aggs {
		if !match(aggs[i]) {
			continue
		}
		fn, err := aggs[i].Fn.WithDelayScaled(factor)
		if err != nil {
			return nil, fmt.Errorf("traffic: aggregate %d: %v", i, err)
		}
		aggs[i].Fn = fn
	}
	return &Matrix{topo: m.topo, aggs: aggs}, nil
}

// Subset returns a copy keeping only the aggregates the predicate
// accepts, re-densifying IDs in order. Useful for thinning an all-pairs
// matrix into a faster instance with the same spatial structure (the
// scenario bench keeps every k-th pair); at least one aggregate must
// survive.
func (m *Matrix) Subset(keep func(Aggregate) bool) (*Matrix, error) {
	var aggs []Aggregate
	for _, a := range m.aggs {
		if keep(a) {
			aggs = append(aggs, a)
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("traffic: Subset kept no aggregates")
	}
	return adopt(m.topo, aggs)
}

// Summary renders a one-line description of the matrix composition.
func (m *Matrix) Summary() string {
	return fmt.Sprintf("%d aggregates (%d real-time, %d bulk, %d large), %d flows, demand %s",
		m.NumAggregates(),
		m.CountClass(utility.ClassRealTime),
		m.CountClass(utility.ClassBulk),
		m.CountClass(utility.ClassLargeFile),
		m.TotalFlows(),
		m.TotalDemand())
}
