package scenario

import (
	"fmt"
	"strings"

	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// ScalePreset is one reproducible large-instance preset: a seeded Waxman
// topology plus a sparse random traffic matrix sized by aggregate count
// rather than the all-pairs cross product, so instances 10-100x the
// HE-31 benchmark stay cheap to describe and exact to regenerate.
// Alpha is scaled down with node count to hold the mean degree near 4-5,
// and capacities are calibrated so shortest-path routing congests the
// core (the optimizer has real work at every size).
type ScalePreset struct {
	// Name is the preset's CLI name (scale-xs .. scale-l).
	Name string
	// Nodes and Aggregates size the instance.
	Nodes      int
	Aggregates int
	// Alpha and Beta are the Waxman edge-probability parameters.
	Alpha float64
	Beta  float64
	// Capacity is the uniform link capacity.
	Capacity unit.Bandwidth
	// MaxDelay scales link delays (the unit square's diagonal).
	MaxDelay unit.Delay
}

// scalePresets is the single registry ScalePresetNames, ScalePresetByName
// and ScaleInstance derive from. scale-xs is the CI smoke size; scale-s
// through scale-l are roughly 10x, 30x and 100x the thinned HE-31
// benchmark instance by aggregate count.
var scalePresets = []ScalePreset{
	{Name: "scale-xs", Nodes: 50, Aggregates: 400, Alpha: 0.4, Beta: 0.15, Capacity: 4 * unit.Mbps, MaxDelay: 50 * unit.Millisecond},
	{Name: "scale-s", Nodes: 100, Aggregates: 1500, Alpha: 0.25, Beta: 0.15, Capacity: 16 * unit.Mbps, MaxDelay: 50 * unit.Millisecond},
	{Name: "scale-m", Nodes: 300, Aggregates: 4000, Alpha: 0.1, Beta: 0.15, Capacity: 24 * unit.Mbps, MaxDelay: 50 * unit.Millisecond},
	{Name: "scale-l", Nodes: 1000, Aggregates: 12000, Alpha: 0.03, Beta: 0.15, Capacity: 32 * unit.Mbps, MaxDelay: 50 * unit.Millisecond},
}

// ScalePresetNames lists the preset names in registry order, for help
// text and error messages.
func ScalePresetNames() []string {
	out := make([]string, len(scalePresets))
	for i, p := range scalePresets {
		out[i] = p.Name
	}
	return out
}

// ScalePresetByName resolves a preset by its CLI name; an unknown name's
// error enumerates every valid one.
func ScalePresetByName(name string) (ScalePreset, error) {
	for _, p := range scalePresets {
		if p.Name == name {
			return p, nil
		}
	}
	return ScalePreset{}, fmt.Errorf("scenario: unknown scale preset %q (valid names: %s)",
		name, strings.Join(ScalePresetNames(), ", "))
}

// Topology generates the preset's seeded Waxman topology.
func (p ScalePreset) Topology(seed int64) (*topology.Topology, error) {
	return topology.Waxman(p.Nodes, p.Alpha, p.Beta, p.Capacity, p.MaxDelay, seed)
}

// Instance generates the preset's topology and traffic matrix. The
// matrix uses the benchmark flow-count calibration (the same ranges as
// HEBenchInstance) over p.Aggregates sparse random pairs; both draws are
// deterministic functions of the seed.
func (p ScalePreset) Instance(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := p.Topology(seed)
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed + 1)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	mat, err := traffic.Sparse(topo, cfg, p.Aggregates)
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// ScaleInstance resolves a preset by name and generates its instance —
// the one-call form the daemon, benchmark/ and the scaling tests share.
func ScaleInstance(name string, seed int64) (*topology.Topology, *traffic.Matrix, error) {
	p, err := ScalePresetByName(name)
	if err != nil {
		return nil, nil, err
	}
	return p.Instance(seed)
}
