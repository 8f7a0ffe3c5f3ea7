// Package netsim estimates queueing behaviour under a routing allocation,
// validating the paper's claim that "minimizing congestion ... makes the
// network more predictable, as queue sizes are minimized" (§3, "Avoiding
// congestion").
//
// The §2.3 water-filling model predicts steady-state rates but says
// nothing about queues. This package layers a standard M/M/1-style
// queueing estimate on top: a link carrying load rho = load/capacity holds
// an expected queue of rho/(1-rho) packets, each adding one packet
// serialization time; links driven at or beyond capacity are assigned a
// fixed saturation queue. The absolute numbers are rough — that is
// inherent to the approximation — but they order allocations correctly:
// an allocation that leaves links saturated shows orders-of-magnitude
// larger queueing delay than one that spreads the load.
package netsim

import (
	"fmt"
	"math"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
)

// The queue model's constants.
const (
	// packetBits is the mean packet size in bits (1500 B).
	packetBits = 12000
	// maxQueuePackets caps the per-link expected queue, standing in for a
	// router's finite buffer.
	maxQueuePackets = 1000
	// utilizationCap treats rho above it as saturated.
	utilizationCap = 0.999
)

// Result reports queueing estimates for one allocation.
type Result struct {
	// LinkQueueMs is the expected queueing delay added by each directed
	// link, in milliseconds.
	LinkQueueMs []float64
	// FlowDelayMs holds one entry per flow: propagation + queueing along
	// its bundle's path.
	FlowDelayMs []float64
	// MeanQueueMs is the load-weighted mean queueing delay over used links.
	MeanQueueMs float64
	// MaxQueueMs is the worst per-link queueing delay.
	MaxQueueMs float64
	// SaturatedLinks counts links at or beyond the utilization cap.
	SaturatedLinks int
}

// Evaluate runs the traffic model over the bundles and derives queueing
// estimates from the resulting link loads.
func Evaluate(topo *topology.Topology, model *flowmodel.Model, bundles []flowmodel.Bundle) (*Result, error) {
	if topo == nil || model == nil {
		return nil, fmt.Errorf("netsim: nil topology or model")
	}
	res := model.NewEval().Evaluate(bundles)

	nL := topo.NumLinks()
	out := &Result{LinkQueueMs: make([]float64, nL)}
	var loadSum, weighted float64
	for l := 0; l < nL; l++ {
		capKbps := float64(topo.Capacity(topology.LinkID(l)))
		load := res.LinkLoad[l]
		if capKbps <= 0 || load <= 0 {
			continue
		}
		rho := load / capKbps
		if rho > utilizationCap {
			out.SaturatedLinks++
		}
		q := queueDelay(capKbps, rho)
		out.LinkQueueMs[l] = q
		if q > out.MaxQueueMs {
			out.MaxQueueMs = q
		}
		loadSum += load
		weighted += q * load
	}
	if loadSum > 0 {
		out.MeanQueueMs = weighted / loadSum
	}
	// Per-flow end-to-end delay: propagation plus queueing on every hop.
	for _, b := range bundles {
		if len(b.Edges) == 0 || b.Flows <= 0 {
			continue
		}
		d := float64(b.Delay)
		for _, e := range b.Edges {
			d += out.LinkQueueMs[e]
		}
		for i := 0; i < b.Flows; i++ {
			out.FlowDelayMs = append(out.FlowDelayMs, d)
		}
	}
	return out, nil
}

// Compare evaluates two allocations over the same model and reports the
// ratio of their mean queueing delays (before/after), the figure of merit
// for the §3 claim. Ratios above 1 mean the second allocation queues less.
func Compare(topo *topology.Topology, model *flowmodel.Model, before, after []flowmodel.Bundle) (ratio float64, b, a *Result, err error) {
	b, err = Evaluate(topo, model, before)
	if err != nil {
		return 0, nil, nil, err
	}
	a, err = Evaluate(topo, model, after)
	if err != nil {
		return 0, nil, nil, err
	}
	switch {
	case a.MeanQueueMs <= 0 && b.MeanQueueMs <= 0:
		ratio = 1
	case a.MeanQueueMs <= 0:
		ratio = math.Inf(1)
	default:
		ratio = b.MeanQueueMs / a.MeanQueueMs
	}
	return ratio, b, a, nil
}

// queueDelay returns the expected M/M/1 queueing delay in milliseconds
// for a link of capKbps at utilization rho: an expected queue of
// rho/(1-rho) packets, rho capped at utilizationCap and the queue at
// maxQueuePackets, each packet adding one serialization time
// packetBits/capacity.
func queueDelay(capKbps, rho float64) float64 {
	if rho <= 0 || capKbps <= 0 {
		return 0
	}
	rho = math.Min(rho, utilizationCap)
	queuePackets := math.Min(rho/(1-rho), maxQueuePackets)
	perPacketMs := packetBits / (capKbps * 1000) * 1000 // kbps -> bits/ms
	return queuePackets * perPacketMs
}
