// Package sdnsim simulates the SDN measurement substrate FUBAR assumes
// (§2.1 of the paper): switches carrying per-aggregate flow rules with
// weighted path splits, byte counters accumulated over measurement epochs,
// and a ground-truth demand process the controller cannot see directly.
//
// The simulator stands in for an OpenFlow deployment: per epoch it jitters
// each aggregate's true per-flow demand, computes the rates the installed
// routing actually yields (with the same TCP-like water-filling used
// throughout the reproduction) and exposes switch-style counters. The
// controller side — turning counters back into a traffic matrix — lives in
// internal/measure.
package sdnsim

import (
	"fmt"
	"math/rand"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// RuleCounter is one flow rule's per-epoch accounting, as a switch would
// export it.
type RuleCounter struct {
	// Agg identifies the aggregate the rule belongs to.
	Agg traffic.AggregateID
	// Flows is the number of flows matched to this rule (approximate
	// flow counting is cheap for an SDN controller).
	Flows int
	// Edges is the installed path.
	Edges []graph.EdgeID
	// Bytes carried during the epoch.
	Bytes float64
	// Congested reports whether any link on the rule's path ran at
	// capacity during the epoch (switch utilization counters).
	Congested bool
}

// EpochStats is everything the measurement plane exports for one epoch.
type EpochStats struct {
	// Epoch is the 0-based epoch index.
	Epoch int
	// Duration is the epoch length.
	Duration time.Duration
	// Rules holds one counter per installed rule.
	Rules []RuleCounter
	// LinkBytes is per directed link byte counts.
	LinkBytes []float64
	// LinkCongested marks links that ran at capacity.
	LinkCongested []bool
	// TrueUtility is the ground-truth network utility achieved this epoch
	// (not visible to a real controller; exported for evaluation).
	TrueUtility float64
}

// MeasurementInterval is the length of one measurement epoch: the
// interval a RunEpoch's counters cover, and the one the controller
// advertises to its switch agents.
const MeasurementInterval = 10 * time.Second

// Config tunes the simulator.
type Config struct {
	// Seed drives demand jitter.
	Seed int64
	// DemandJitter is the relative per-epoch demand variation: each
	// epoch an aggregate's true demand is scaled by a factor drawn
	// uniformly from [1-j, 1+j]. Default 0.1.
	DemandJitter float64
}

func (c Config) withDefaults() Config {
	if c.DemandJitter < 0 {
		c.DemandJitter = 0
	} else if c.DemandJitter == 0 {
		c.DemandJitter = 0.1
	}
	return c
}

// Sim is the simulated network. Not safe for concurrent use. It keeps its
// buffers from epoch to epoch, so a long-lived owner re-points one Sim at
// each new network with Reset instead of building another.
type Sim struct {
	topo   *topology.Topology
	truth  *traffic.Matrix
	cfg    Config
	rng    *rand.Rand
	routed bool // Install succeeded since the last Reset
	epoch  int
	eval   *flowmodel.Eval // every RunEpoch's arena, rebound to its model
	stats  EpochStats      // RunEpoch's result, overwritten by the next one
	counts []int           // Install's per-aggregate flow tally
	// jitteredMatrix's epoch matrix, rebuilt in place by each RunEpoch (only
	// that epoch's model reads it), its staging buffer, and the vertex
	// buffer its rescaled bandwidth curves share.
	jittered traffic.Matrix
	aggs     []traffic.Aggregate
	pts      []utility.Point
	// installed is Install's copy of the routing.
	installed []flowmodel.Bundle
}

// New builds a simulator over a ground-truth matrix. The initial routing
// is empty: call Install before RunEpoch.
func New(topo *topology.Topology, truth *traffic.Matrix, cfg Config) (*Sim, error) {
	s := new(Sim)
	if err := s.Reset(topo, truth, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset points the simulator at a new network and ground truth: it is
// then the simulator New(topo, truth, cfg) would build — epoch 0, no
// routing installed, the same jitter draws — on the buffers it already
// has. On error the simulator is unchanged.
func (s *Sim) Reset(topo *topology.Topology, truth *traffic.Matrix, cfg Config) error {
	if topo == nil || truth == nil {
		return fmt.Errorf("sdnsim: nil topology or matrix")
	}
	if truth.Topology() != topo {
		return fmt.Errorf("sdnsim: matrix bound to a different topology")
	}
	cfg = cfg.withDefaults()
	if cfg.DemandJitter >= 1 {
		return fmt.Errorf("sdnsim: DemandJitter %v must be < 1", cfg.DemandJitter)
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	s.rng.Seed(cfg.Seed) // what a fresh source draws, on the one it has
	s.topo, s.truth, s.cfg, s.routed, s.epoch = topo, truth, cfg, false, 0
	return nil
}

// Topology returns the simulated topology.
func (s *Sim) Topology() *topology.Topology { return s.topo }

// Truth returns the hidden ground-truth matrix (evaluation only).
func (s *Sim) Truth() *traffic.Matrix { return s.truth }

// Install replaces the routing with the given bundles (the controller's
// path assignment). Bundles must cover every aggregate's flows exactly.
func (s *Sim) Install(bundles []flowmodel.Bundle) error {
	counts := append(s.counts[:0], make([]int, s.truth.NumAggregates())...)
	s.counts = counts
	for _, b := range bundles {
		if int(b.Agg) < 0 || int(b.Agg) >= len(counts) {
			return fmt.Errorf("sdnsim: bundle references unknown aggregate %d", b.Agg)
		}
		if b.Flows < 0 {
			return fmt.Errorf("sdnsim: negative flow count on aggregate %d", b.Agg)
		}
		counts[b.Agg] += b.Flows
	}
	for i, c := range counts {
		want := s.truth.Aggregate(traffic.AggregateID(i)).Flows
		if c != want {
			return fmt.Errorf("sdnsim: aggregate %d covers %d flows, want %d", i, c, want)
		}
	}
	s.installed = append(s.installed[:0], bundles...)
	s.routed = true
	return nil
}

// InstallShortestPaths installs the default lowest-delay routing, the
// state of the network before FUBAR runs.
func (s *Sim) InstallShortestPaths() error {
	var bundles []flowmodel.Bundle
	var searcher graph.Searcher // one scratch for every aggregate's search
	for _, a := range s.truth.Aggregates() {
		if a.IsSelfPair() {
			bundles = append(bundles, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
			continue
		}
		p, ok := searcher.ShortestPath(s.topo.Graph(), a.Src, a.Dst, graph.Constraints{})
		if !ok {
			return fmt.Errorf("sdnsim: no path for aggregate %d", a.ID)
		}
		bundles = append(bundles, flowmodel.NewBundle(s.topo, a.ID, a.Flows, p))
	}
	return s.Install(bundles)
}

// RunEpoch advances the simulation one measurement epoch and returns the
// counters a controller would read. The stats belong to the simulator
// and are valid until the next RunEpoch, which overwrites them in place:
// a caller that keeps them longer copies them. Each rule's Edges is the
// installed bundle's own path.
func (s *Sim) RunEpoch() (*EpochStats, error) {
	if !s.routed {
		return nil, fmt.Errorf("sdnsim: no routing installed")
	}
	// Jitter the true demands for this epoch.
	jittered, err := s.jitteredMatrix()
	if err != nil {
		return nil, err
	}
	model, err := flowmodel.New(s.topo, jittered)
	if err != nil {
		return nil, err
	}
	if s.eval == nil {
		s.eval = model.NewEval()
	}
	s.eval.Rebind(model)
	res := s.eval.Evaluate(s.installed)

	secs := MeasurementInterval.Seconds()
	stats := &s.stats
	*stats = EpochStats{
		Epoch:         s.epoch,
		Duration:      MeasurementInterval,
		Rules:         append(stats.Rules[:0], make([]RuleCounter, len(s.installed))...),
		LinkBytes:     append(stats.LinkBytes[:0], make([]float64, s.topo.NumLinks())...),
		LinkCongested: append(stats.LinkCongested[:0], res.IsCongested...),
		TrueUtility:   res.NetworkUtility,
	}
	for i, b := range s.installed {
		congested := false
		for _, e := range b.Edges {
			if res.IsCongested[e] {
				congested = true
				break
			}
		}
		// Rates are kbps; bytes = kbps * 1000/8 * seconds.
		bytes := res.BundleRate[i] * 125 * secs
		stats.Rules[i] = RuleCounter{
			Agg:       b.Agg,
			Flows:     b.Flows,
			Edges:     b.Edges,
			Bytes:     bytes,
			Congested: congested,
		}
		for _, e := range b.Edges {
			stats.LinkBytes[e] += bytes
		}
	}
	s.epoch++
	return stats, nil
}

// jitteredMatrix rescales each aggregate's demand by this epoch's draw and
// rebuilds the simulator's own epoch matrix from them: the last epoch's
// matrix, its curves and its staging buffer are overwritten, never the
// truth's.
func (s *Sim) jitteredMatrix() (*traffic.Matrix, error) {
	s.aggs, s.pts = s.aggs[:0], s.pts[:0]
	for i := range s.truth.NumAggregates() {
		a := s.truth.Aggregate(traffic.AggregateID(i))
		j := 1 + s.cfg.DemandJitter*(2*s.rng.Float64()-1)
		if peak := unit.Bandwidth(float64(a.Fn.PeakBandwidth()) * j); peak > 0 {
			var err error
			if a.Fn, s.pts, err = utility.AppendPeakBandwidth(s.pts, a.Fn, peak); err != nil {
				return nil, err
			}
		}
		s.aggs = append(s.aggs, a)
	}
	if err := traffic.Rebuild(&s.jittered, s.topo, s.aggs); err != nil {
		return nil, err
	}
	return &s.jittered, nil
}
