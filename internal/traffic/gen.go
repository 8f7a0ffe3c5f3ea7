package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"fubar/internal/topology"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// The §3 workload's class mix and gravity, fixed for every matrix.
const (
	// realTimeFraction is the probability a non-large aggregate is
	// real-time (paper: 0.5).
	realTimeFraction = 0.5
	// largeProbability is the chance an aggregate is a large file
	// transfer (paper: 0.02).
	largeProbability = 0.02
	// gravitySkew makes the matrix gravity-like, as real-world TMs are:
	// each node draws a lognormal mass with this sigma and an aggregate's
	// flow count scales with sqrt(mass_src*mass_dst) (normalized to keep
	// total demand roughly constant).
	gravitySkew = 0.8
)

// largePeaks are the candidate bandwidth peaks for large aggregates
// (paper: 1 or 2 Mbps), chosen uniformly; largeFns holds each peak's
// function, built once and shared like utility.RealTime() and
// utility.Bulk().
var (
	largePeaks = [...]unit.Bandwidth{1000 * unit.Kbps, 2000 * unit.Kbps}
	largeFns   = [len(largePeaks)]utility.Function{utility.LargeFile(largePeaks[0]), utility.LargeFile(largePeaks[1])}
)

// GenConfig parameterizes the §3 random traffic matrix: every ordered POP
// pair becomes an aggregate whose class is drawn at random — real-time or
// bulk with equal probability, with a small chance of a large
// file-transfer aggregate with a higher bandwidth peak.
type GenConfig struct {
	// Seed drives all randomness; equal seeds give equal matrices.
	Seed int64
	// Flow-count ranges per class, inclusive. Flow counts are drawn
	// uniformly. These are the knobs that calibrate total demand to the
	// provisioned / underprovisioned regimes.
	RealTimeFlows [2]int
	BulkFlows     [2]int
	LargeFlows    [2]int
	// IncludeSelfPairs also emits src==dst aggregates so the aggregate
	// count matches the paper's 31x31 = 961 accounting. Self-pairs carry
	// no backbone demand.
	IncludeSelfPairs bool
}

// DefaultGenConfig mirrors the paper's workload on the HE-31 topology:
// 50/50 real-time vs bulk, 2% large aggregates at 1 or 2 Mbps peaks, flow
// counts calibrated so 100 Mbps links are "provisioned" (congestion exists
// but can be optimized away) and 75 Mbps links are not.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{
		Seed:             seed,
		RealTimeFlows:    [2]int{10, 50},
		BulkFlows:        [2]int{3, 15},
		LargeFlows:       [2]int{2, 4},
		IncludeSelfPairs: true,
	}
}

// Validate checks the generation parameters; the zero value is invalid
// (flow ranges must be positive).
func (c GenConfig) Validate() error {
	for _, r := range [][2]int{c.RealTimeFlows, c.BulkFlows, c.LargeFlows} {
		if r[0] <= 0 || r[1] < r[0] {
			return fmt.Errorf("traffic: bad flow range %v", r)
		}
	}
	return nil
}

// Generate draws a random traffic matrix over all ordered node pairs of the
// topology according to the config. Deterministic for a given seed.
func Generate(topo *topology.Topology, cfg GenConfig) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := topo.NumNodes()
	masses := nodeMasses(rng, n)
	pairs := n * n
	if !cfg.IncludeSelfPairs {
		pairs -= n
	}
	aggs := make([]Aggregate, 0, pairs)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst && !cfg.IncludeSelfPairs {
				continue
			}
			a := drawAggregate(rng, cfg)
			a.Src = topology.NodeID(src)
			a.Dst = topology.NodeID(dst)
			a.Flows = gravityFlows(a.Flows, masses[src], masses[dst])
			aggs = append(aggs, a)
		}
	}
	return adopt(topo, aggs)
}

// nodeMasses draws per-node gravity masses: lognormal with sigma
// gravitySkew, normalized to mean 1 so total demand stays comparable to
// an ungravitated matrix's.
func nodeMasses(rng *rand.Rand, n int) []float64 {
	masses := make([]float64, n)
	var sum float64
	for i := range masses {
		masses[i] = math.Exp(rng.NormFloat64() * gravitySkew)
		sum += masses[i]
	}
	mean := sum / float64(n)
	for i := range masses {
		masses[i] /= mean
	}
	return masses
}

// gravityFlows scales a drawn flow count by the geometric mean of its
// endpoints' masses, keeping at least one flow.
func gravityFlows(flows int, massSrc, massDst float64) int {
	return max(1, int(math.Round(float64(flows)*math.Sqrt(massSrc*massDst))))
}

func drawAggregate(rng *rand.Rand, cfg GenConfig) Aggregate {
	// Draw in a fixed order so the stream of random numbers, and hence
	// the matrix, is stable for a given seed regardless of outcomes.
	classRoll := rng.Float64()
	rtRoll := rng.Float64()
	flowRoll := rng.Float64()
	peakIdx := rng.Intn(len(largePeaks))
	uniform := func(lo, hi int) int { return lo + int(flowRoll*float64(hi-lo+1)) }

	switch {
	case classRoll < largeProbability:
		return Aggregate{
			Class:  utility.ClassLargeFile,
			Flows:  uniform(cfg.LargeFlows[0], cfg.LargeFlows[1]),
			Fn:     largeFns[peakIdx],
			Weight: 1,
		}
	case rtRoll < realTimeFraction:
		return Aggregate{
			Class:  utility.ClassRealTime,
			Flows:  uniform(cfg.RealTimeFlows[0], cfg.RealTimeFlows[1]),
			Fn:     utility.RealTime(),
			Weight: 1,
		}
	default:
		return Aggregate{
			Class:  utility.ClassBulk,
			Flows:  uniform(cfg.BulkFlows[0], cfg.BulkFlows[1]),
			Fn:     utility.Bulk(),
			Weight: 1,
		}
	}
}

// Sparse draws a sparse random traffic matrix: `aggregates` aggregates
// over uniformly random ordered non-self node pairs instead of the full
// all-pairs cross product, so instance size is controlled by the
// aggregate count rather than n². Pairs may repeat (parallel aggregates
// between the same POPs are legal and occur in real matrices); classes,
// flow counts and the gravity skew follow the config exactly as in
// Generate. Deterministic for a given seed.
func Sparse(topo *topology.Topology, cfg GenConfig, aggregates int) (*Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("traffic: sparse matrix needs >= 2 nodes, topology has %d", n)
	}
	if aggregates <= 0 {
		return nil, fmt.Errorf("traffic: aggregate count must be positive, got %d", aggregates)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	masses := nodeMasses(rng, n)
	aggs := make([]Aggregate, 0, aggregates)
	for len(aggs) < aggregates {
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n // uniform over non-self destinations
		a := drawAggregate(rng, cfg)
		a.Src = topology.NodeID(src)
		a.Dst = topology.NodeID(dst)
		a.Flows = gravityFlows(a.Flows, masses[src], masses[dst])
		aggs = append(aggs, a)
	}
	return adopt(topo, aggs)
}

// RandomAggregate draws one aggregate's class, flow count, utility
// function and weight from the config's class mix using the caller's RNG
// stream — the single-aggregate form of Generate, used by the scenario
// engine to materialize aggregate arrivals mid-replay. Src and Dst are
// left zero for the caller to fill.
func RandomAggregate(rng *rand.Rand, cfg GenConfig) (Aggregate, error) {
	if err := cfg.Validate(); err != nil {
		return Aggregate{}, err
	}
	return drawAggregate(rng, cfg), nil
}
