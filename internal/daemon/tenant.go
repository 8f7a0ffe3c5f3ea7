package daemon

import (
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"

	"fubar/internal/core"
	"fubar/internal/experiment"
	"fubar/internal/instance"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
)

// Controller is what one tenant wraps: the session surface the daemon
// drives. *fubar.Session satisfies it as-is (the root package's
// Solution/Scenario/EpochRecord/Trajectory types are aliases of the
// internal ones), and package fubar injects the Session constructor as
// Config.Factory — the interface exists so this package never imports
// its own root and tests can substitute fakes.
type Controller interface {
	Optimize(ctx context.Context) (*core.Solution, error)
	Replay(ctx context.Context, sc scenario.Scenario) iter.Seq2[scenario.EpochResult, error]
	ReplayClosedLoop(ctx context.Context, sc scenario.Scenario) iter.Seq2[scenario.EpochResult, error]
	Trajectory() scenario.Trajectory
	Close() error
}

// TenantConfig is what a Factory gets to build one tenant's
// Controller.
type TenantConfig struct {
	// Workers is the tenant's worker budget, already clamped to the
	// daemon's global cap; the Controller should size its candidate
	// fan-out to it.
	Workers int
	// Telemetry is the tenant's isolated registry+tracer: everything
	// the Controller records lands in this tenant's /metrics only.
	Telemetry *telemetry.Telemetry
}

// Factory wraps one materialized (topology, matrix) pair into a
// Controller. Package fubar supplies the *Session-backed one.
type Factory func(topo *topology.Topology, mat *traffic.Matrix, cfg TenantConfig) (Controller, error)

// tenant is one registered instance: a Controller plus its isolated
// telemetry, worker budget, serialization gate and lifecycle context.
type tenant struct {
	info TenantInfo
	ctrl Controller
	tel  *telemetry.Telemetry
	met  *telemetry.TenantMetrics

	// inflight times the requests in flight on the tenant.
	inflight inflight

	// gate serializes all Controller access — Session methods must not
	// run concurrently. Buffered size 1: send acquires, receive
	// releases.
	gate chan struct{}

	// ctx is a child of the server's base context; cancel fires on
	// DELETE and on daemon shutdown, ending in-flight work at its next
	// epoch or candidate-batch boundary.
	ctx    context.Context
	cancel context.CancelFunc

	// wg counts in-flight HTTP calls touching this tenant; delete and
	// shutdown wait on it before releasing the control plane.
	wg sync.WaitGroup

	// labels are the CPU-profile labels of each kind of run, built at
	// create (see runKinds).
	labels [len(runKinds)]*telemetry.ProfileLabels
}

// The kinds of tenant run, as the kind profile label names them.
const (
	runOptimize = iota
	runReplay
	runClosedLoop
)

var runKinds = [...]string{runOptimize: "optimize", runReplay: "replay", runClosedLoop: "closed-loop"}

// lock acquires the tenant's serialization gate, giving up when ctx is
// done (client disconnect, tenant delete, daemon shutdown).
func (t *tenant) lock(ctx context.Context) error {
	select {
	case t.gate <- struct{}{}:
		return nil
	default:
	}
	select {
	case t.gate <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("tenant %s busy: %w", t.info.ID, ctx.Err())
	}
}

func (t *tenant) unlock() { <-t.gate }

// validID keeps tenant IDs URL-path-safe.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return false
		}
	}
	return true
}

// maxAggregates bounds an inline instance's traffic matrix. The matrix is
// generated whole when the tenant is created, 96 bytes an aggregate, so
// the bound is what keeps one create body from asking for gigabytes: 1<<16
// aggregates is ≈6 MiB, five times scale-l's 12,000, the largest preset. A
// topology too large for its full matrix can still ask for a sparse sample
// of it.
const maxAggregates = 1 << 16

// materialize turns a create request into its (topology, matrix)
// instance: an inline plain-text topology with a generated matrix, or
// one of the canned presets.
func materialize(req *CreateTenantRequest) (*topology.Topology, *traffic.Matrix, error) {
	if req.CapacityMbps < 0 {
		return nil, nil, fmt.Errorf("daemon: negative capacity_mbps %v (0 keeps the declared capacities)", req.CapacityMbps)
	}
	if req.Topology != "" {
		if req.Preset != "" {
			return nil, nil, fmt.Errorf("daemon: set preset or topology, not both")
		}
		if req.Aggregates < 0 || req.Aggregates > maxAggregates {
			return nil, nil, fmt.Errorf("daemon: bad aggregates %d (want 0 for the full matrix, or 1 to %d)", req.Aggregates, maxAggregates)
		}
		topo, err := topology.Parse(strings.NewReader(req.Topology))
		if err != nil {
			return nil, nil, err
		}
		if req.CapacityMbps > 0 {
			topo, err = topo.WithUniformCapacity(unit.Bandwidth(req.CapacityMbps * float64(unit.Mbps)))
			if err != nil {
				return nil, nil, err
			}
		}
		cfg := traffic.DefaultGenConfig(req.Seed)
		if n := topo.NumNodes(); req.Aggregates == 0 && n*n > maxAggregates {
			return nil, nil, fmt.Errorf("daemon: a %d-node topology's full matrix is %d aggregates, over %d: ask for a sparse sample (aggregates)", n, n*n, maxAggregates)
		}
		var mat *traffic.Matrix
		if req.Aggregates > 0 {
			mat, err = traffic.Sparse(topo, cfg, req.Aggregates)
		} else {
			mat, err = traffic.Generate(topo, cfg)
		}
		if err != nil {
			return nil, nil, err
		}
		return topo, mat, nil
	}
	if req.Preset == "" {
		return nil, nil, fmt.Errorf("daemon: create request needs a preset or an inline topology")
	}
	if req.Aggregates != 0 || req.CapacityMbps != 0 {
		return nil, nil, fmt.Errorf("daemon: aggregates and capacity_mbps shape an inline topology's instance; preset %q brings its own", req.Preset)
	}
	switch req.Preset {
	case "provisioned":
		return experiment.Instance(experiment.Provisioned(req.Seed))
	case "underprovisioned":
		return experiment.Instance(experiment.Underprovisioned(req.Seed))
	case "prioritized":
		return experiment.Instance(experiment.Prioritized(req.Seed))
	case "relaxed-delay":
		return experiment.Instance(experiment.RelaxedDelay(req.Seed))
	case "hebench":
		return instance.HEBench(req.Seed)
	default:
		// Fall through to the scale presets; their error enumerates
		// the valid names.
		return instance.Scale(req.Preset, req.Seed)
	}
}
