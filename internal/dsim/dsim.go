// Package dsim is a dynamic, time-stepped fluid simulator of TCP-like
// congestion control over a FUBAR path allocation.
//
// The analytical traffic model (internal/flowmodel) predicts the
// *equilibrium* bandwidth of every bundle with a single water-filling
// pass. dsim checks that prediction against an independent substrate: it
// simulates additive-increase / multiplicative-decrease rate dynamics in
// discrete ticks, with per-link drop-tail queues, and reports the rates
// bundles actually average after convergence plus the queues links
// actually build. Two of the paper's claims rest on it:
//
//   - §2.3's model is adequate: simulated mean rates should track the
//     water-filling prediction closely (see Validate).
//   - §3 "Avoiding congestion": a FUBAR allocation should build visibly
//     shorter queues than the same traffic on shortest paths.
//
// The simulation is deterministic given its seed: start phases are
// seeded, and the tick loop contains no other randomness.
package dsim

import (
	"fmt"
	"math"
	"math/rand"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// The simulation's design values, fixed for every run.
const (
	// tickMs is the simulation step in milliseconds.
	tickMs = 5.0
	// durationMs is total simulated time (30 s).
	durationMs = 30000.0
	// warmupMs excludes the initial transient from all averages.
	warmupMs = durationMs / 3
	// increaseGain scales additive increase: a bundle grows by
	// increaseGain * flows / RTT(ms) kbps per millisecond when its path
	// is unloaded — the same flows/RTT growth law the analytical model
	// assumes.
	increaseGain = 8.0
	// decreaseFactor is the multiplicative backoff applied when a path
	// link is overloaded, at most once per RTT.
	decreaseFactor = 0.7
	// queueLimitMs bounds each link's queue, expressed as milliseconds
	// of buffering at link capacity (drop-tail beyond it).
	queueLimitMs = 100.0
)

// LinkStats aggregates one directed link's behaviour after warmup.
type LinkStats struct {
	// MeanQueueMs is the time-averaged queueing delay in milliseconds.
	MeanQueueMs float64
	// MaxQueueMs is the peak queueing delay.
	MaxQueueMs float64
	// MeanUtilization is time-averaged carried load / capacity.
	MeanUtilization float64
	// DroppedKbit is fluid dropped at the full queue, in kilobits.
	DroppedKbit float64
}

// BundleStats aggregates one bundle's behaviour after warmup.
type BundleStats struct {
	// MeanRate is the time-averaged aggregate rate in kbps.
	MeanRate float64
	// MinRate and MaxRate bound the post-warmup sawtooth.
	MinRate, MaxRate float64
	// MeanQueueMs is the time-averaged one-way queueing delay summed
	// over the bundle's path.
	MeanQueueMs float64
	// Backoffs counts multiplicative decreases after warmup.
	Backoffs int
}

// Result is a completed simulation.
type Result struct {
	Bundles []BundleStats
	Links   []LinkStats
	// MeanQueueMs is the load-weighted mean queueing delay over links,
	// the headline §3 queue metric.
	MeanQueueMs float64
	// MaxQueueMs is the worst link queue seen after warmup.
	MaxQueueMs float64
	// NetworkUtility evaluates every aggregate's utility function at the
	// simulated mean per-flow rate and the simulated RTT (propagation
	// plus queueing), weighted like the analytical model's "total
	// average".
	NetworkUtility float64
	// Ticks is the number of simulation steps executed.
	Ticks int
}

// sim carries the tick-loop state.
type sim struct {
	topo    *topology.Topology
	mat     *traffic.Matrix
	bundles []flowmodel.Bundle

	capacity []float64 // per link, kbps
	queueCap []float64 // per link, kbit

	rate     []float64 // per bundle, kbps
	demand   []float64 // per bundle, kbps
	rttMs    []float64
	nextDecr []float64 // per bundle: earliest ms the next backoff may fire
	phase    []float64 // per bundle: start offset in ms

	load  []float64 // per link per tick, kbps
	queue []float64 // per link, kbit

	// accumulators (post-warmup)
	rateSum   []float64
	rateMin   []float64
	rateMax   []float64
	bQueueSum []float64
	backoffs  []int
	loadSum   []float64
	queueSum  []float64
	queueMax  []float64
	dropped   []float64
	samples   int
}

// Simulate runs the fluid simulation of the given allocation. The seed
// randomizes bundle start phases so sawtooths desynchronize.
func Simulate(topo *topology.Topology, mat *traffic.Matrix, bundles []flowmodel.Bundle, seed int64) (*Result, error) {
	if topo == nil || mat == nil {
		return nil, fmt.Errorf("dsim: nil topology or matrix")
	}
	if len(bundles) == 0 {
		return nil, fmt.Errorf("dsim: empty allocation")
	}
	nL := topo.NumLinks()
	nB := len(bundles)
	s := &sim{
		topo:     topo,
		mat:      mat,
		bundles:  bundles,
		capacity: make([]float64, nL),
		queueCap: make([]float64, nL),
		rate:     make([]float64, nB),
		demand:   make([]float64, nB),
		rttMs:    make([]float64, nB),
		nextDecr: make([]float64, nB),
		phase:    make([]float64, nB),
		load:     make([]float64, nL),
		queue:    make([]float64, nL),

		rateSum:   make([]float64, nB),
		rateMin:   make([]float64, nB),
		rateMax:   make([]float64, nB),
		bQueueSum: make([]float64, nB),
		backoffs:  make([]int, nB),
		loadSum:   make([]float64, nL),
		queueSum:  make([]float64, nL),
		queueMax:  make([]float64, nL),
		dropped:   make([]float64, nL),
	}
	for l := 0; l < nL; l++ {
		c := float64(topo.Capacity(topology.LinkID(l)))
		s.capacity[l] = c
		s.queueCap[l] = c * queueLimitMs / 1000 // kbit
	}
	rng := rand.New(rand.NewSource(seed))
	for i, b := range bundles {
		agg := mat.Aggregate(b.Agg)
		if b.Flows < 0 {
			return nil, fmt.Errorf("dsim: bundle %d has negative flows", i)
		}
		s.demand[i] = float64(agg.DemandPerFlow()) * float64(b.Flows)
		s.rttMs[i] = b.RTT()
		s.rateMin[i] = math.Inf(1)
		s.phase[i] = rng.Float64() * s.rttMs[i]
		for _, e := range b.Edges {
			if int(e) >= nL {
				return nil, fmt.Errorf("dsim: bundle %d references link %d outside topology", i, e)
			}
		}
	}
	s.run()
	return s.collect(), nil
}

// run executes the tick loop.
func (s *sim) run() {
	dt := tickMs
	for now := 0.0; now < durationMs; now += dt {
		measuring := now >= warmupMs

		// Offered load per link from current rates.
		for l := range s.load {
			s.load[l] = 0
		}
		for i, b := range s.bundles {
			if now < s.phase[i] {
				continue // not started yet
			}
			for _, e := range b.Edges {
				s.load[e] += s.rate[i]
			}
		}

		// Queue dynamics: excess accumulates, spare capacity drains,
		// overflow is dropped.
		for l := range s.queue {
			excess := (s.load[l] - s.capacity[l]) * dt / 1000 // kbit
			q := s.queue[l] + excess
			if q < 0 {
				q = 0
			}
			if q > s.queueCap[l] {
				if measuring {
					s.dropped[l] += q - s.queueCap[l]
				}
				q = s.queueCap[l]
			}
			s.queue[l] = q
			if measuring {
				carried := s.load[l]
				if carried > s.capacity[l] {
					carried = s.capacity[l]
				}
				s.loadSum[l] += carried
				qMs := s.queueMs(l)
				s.queueSum[l] += qMs
				if qMs > s.queueMax[l] {
					s.queueMax[l] = qMs
				}
			}
		}

		// Rate dynamics per bundle: back off when any path link has
		// standing queue or offered overload (at most once per RTT),
		// otherwise grow additively toward demand.
		for i, b := range s.bundles {
			if now < s.phase[i] || b.Flows == 0 || s.demand[i] == 0 {
				continue
			}
			if len(b.Edges) == 0 {
				s.rate[i] = s.demand[i] // same-POP: no backbone, instant demand
			} else {
				congested := false
				for _, e := range b.Edges {
					if s.load[e] > s.capacity[e] || s.queue[e] > 0.5*s.queueCap[e] {
						congested = true
						break
					}
				}
				if congested && now >= s.nextDecr[i] {
					s.rate[i] *= decreaseFactor
					s.nextDecr[i] = now + s.rttMs[i]
					if measuring {
						s.backoffs[i]++
					}
				} else if !congested {
					s.rate[i] += increaseGain * float64(b.Flows) / s.rttMs[i] * dt
					if s.rate[i] > s.demand[i] {
						s.rate[i] = s.demand[i]
					}
				}
			}
			if measuring {
				s.rateSum[i] += s.rate[i]
				if s.rate[i] < s.rateMin[i] {
					s.rateMin[i] = s.rate[i]
				}
				if s.rate[i] > s.rateMax[i] {
					s.rateMax[i] = s.rate[i]
				}
				var qMs float64
				for _, e := range b.Edges {
					qMs += s.queueMs(int(e))
				}
				s.bQueueSum[i] += qMs
			}
		}

		if measuring {
			s.samples++
		}
	}
}

// queueMs converts a link's queue length to milliseconds of delay at
// link capacity.
func (s *sim) queueMs(l int) float64 {
	if s.capacity[l] <= 0 {
		return 0
	}
	return s.queue[l] / s.capacity[l] * 1000
}

// collect folds accumulators into the Result.
func (s *sim) collect() *Result {
	n := float64(s.samples)
	if n == 0 {
		n = 1
	}
	res := &Result{
		Bundles: make([]BundleStats, len(s.bundles)),
		Links:   make([]LinkStats, len(s.capacity)),
		Ticks:   int(durationMs / tickMs),
	}
	for i := range s.bundles {
		min := s.rateMin[i]
		if math.IsInf(min, 1) {
			min = 0
		}
		res.Bundles[i] = BundleStats{
			MeanRate:    s.rateSum[i] / n,
			MinRate:     min,
			MaxRate:     s.rateMax[i],
			MeanQueueMs: s.bQueueSum[i] / n,
			Backoffs:    s.backoffs[i],
		}
	}
	var qWeighted, loadTotal float64
	for l := range s.capacity {
		meanLoad := s.loadSum[l] / n
		util := 0.0
		if s.capacity[l] > 0 {
			util = meanLoad / s.capacity[l]
		}
		res.Links[l] = LinkStats{
			MeanQueueMs:     s.queueSum[l] / n,
			MaxQueueMs:      s.queueMax[l],
			MeanUtilization: util,
			DroppedKbit:     s.dropped[l],
		}
		qWeighted += res.Links[l].MeanQueueMs * meanLoad
		loadTotal += meanLoad
		if res.Links[l].MaxQueueMs > res.MaxQueueMs {
			res.MaxQueueMs = res.Links[l].MaxQueueMs
		}
	}
	if loadTotal > 0 {
		res.MeanQueueMs = qWeighted / loadTotal
	}
	res.NetworkUtility = s.utility(res)
	return res
}

// utility evaluates aggregate utility functions at simulated mean rates
// and simulated RTTs (propagation + queueing), mirroring the analytical
// model's weighting (§3 "total average").
func (s *sim) utility(res *Result) float64 {
	nA := s.mat.NumAggregates()
	perAgg := make([]float64, nA)
	flowsCovered := make([]float64, nA)
	for i, b := range s.bundles {
		if b.Flows <= 0 {
			continue
		}
		agg := s.mat.Aggregate(b.Agg)
		perFlow := unit.Bandwidth(res.Bundles[i].MeanRate / float64(b.Flows))
		var u float64
		if len(b.Edges) == 0 {
			u = 1
		} else {
			rtt := 2 * (unit.Delay(res.Bundles[i].MeanQueueMs) + b.Delay)
			u = agg.Fn.Eval(perFlow, rtt)
		}
		perAgg[b.Agg] += u * float64(b.Flows)
		flowsCovered[b.Agg] += float64(b.Flows)
	}
	var total, weight float64
	for i := 0; i < nA; i++ {
		agg := s.mat.Aggregate(traffic.AggregateID(i))
		f := float64(agg.Flows)
		if f == 0 {
			continue
		}
		u := perAgg[i] / f // uncovered flows contribute zero
		total += u * agg.Weight * f
		weight += agg.Weight * f
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}
