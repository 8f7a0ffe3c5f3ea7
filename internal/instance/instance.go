// Package instance is the catalogue of named evaluation instances — HE-bench,
// the soak ring and the scale presets, under one traffic calibration — that
// the benchmark, the daemon, the CLIs and every layer's tests draw. It
// imports only topology, traffic and unit, so every layer can reach it.
package instance

import (
	"fmt"
	"strings"

	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// Calibration is the benchmark traffic calibration HE-bench and the scale
// presets draw under: the §3 class mix at real-time 2–10 and bulk 1–4
// flows per aggregate, no self-pairs.
func Calibration(seed int64) traffic.GenConfig {
	cfg := traffic.DefaultGenConfig(seed)
	cfg.RealTimeFlows = [2]int{2, 10}
	cfg.BulkFlows = [2]int{1, 4}
	cfg.IncludeSelfPairs = false
	return cfg
}

// HEBench is the replay-benchmark instance (the daemon's "hebench" preset):
// the Hurricane Electric 31-POP substitute at 6 Mbps per link under every
// fifth aggregate of the calibrated workload — HE's spatial structure at a
// fifth of the optimization cost.
func HEBench(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.HurricaneElectric(6 * unit.Mbps)
	if err != nil {
		return nil, nil, err
	}
	full, err := traffic.Generate(topo, Calibration(seed))
	if err != nil {
		return nil, nil, err
	}
	mat, err := full.Subset(func(a traffic.Aggregate) bool { return a.ID%5 == 0 })
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// Soak is the soak bench's and the scenario matrix's ring: six nodes at
// 600 kbps per link with two shared-risk groups, so every canned scenario
// has real events to play, under a light all-pairs matrix drawn at seed+6.
func Soak(seed int64) (*topology.Topology, *traffic.Matrix, error) {
	topo, err := topology.Ring(6, 3, 600*unit.Kbps, seed)
	if err != nil {
		return nil, nil, err
	}
	topo, err = topo.WithSRLGs([]topology.SRLG{
		{Name: "ga", Links: []topology.LinkID{0, 2}},
		{Name: "gb", Links: []topology.LinkID{4}},
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := traffic.DefaultGenConfig(seed + 6)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := traffic.Generate(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}

// ScalePreset is one large-instance preset: a seeded Waxman topology under
// sparse matrices sized by aggregate count, not all pairs. Alpha falls with
// node count to hold the mean degree near 4-5; capacities are set so that
// shortest-path routing congests the core at every size.
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

// scalePresets is the one preset registry. scale-xs is the CI smoke size;
// scale-s through scale-l are roughly 10x, 30x and 100x HE-bench by
// aggregate count.
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
	return ScalePreset{}, fmt.Errorf("instance: unknown scale preset %q (valid names: %s)",
		name, strings.Join(ScalePresetNames(), ", "))
}

// Topology generates the preset's seeded Waxman topology.
func (p ScalePreset) Topology(seed int64) (*topology.Topology, error) {
	return topology.Waxman(p.Nodes, p.Alpha, p.Beta, p.Capacity, p.MaxDelay, seed)
}

// Matrix draws the preset's sparse matrix over topo under
// Calibration(seed); the go test cold benchmark's instances are scale-s
// matrices 1–8 over topology seed 1.
func (p ScalePreset) Matrix(topo *topology.Topology, seed int64) (*traffic.Matrix, error) {
	return traffic.Sparse(topo, Calibration(seed), p.Aggregates)
}

// Scale is the named preset's instance for seed: topology seed, matrix
// seed+1.
func Scale(name string, seed int64) (*topology.Topology, *traffic.Matrix, error) {
	p, err := ScalePresetByName(name)
	if err != nil {
		return nil, nil, err
	}
	topo, err := p.Topology(seed)
	if err != nil {
		return nil, nil, err
	}
	mat, err := p.Matrix(topo, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return topo, mat, nil
}
