package experiment

import (
	"context"
	"fmt"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/pathgen"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// FailoverResult captures the three states of a link-failure episode:
// the optimized healthy network, the moment after the failure with the
// stale allocation still installed, and the re-optimized network that
// the next offline cycle produces.
type FailoverResult struct {
	// FailedLink is the directed link chosen to fail (the most loaded
	// one of the healthy solution).
	FailedLink graph.EdgeID
	// FailedLinkName renders it as "A->B".
	FailedLinkName string
	// Healthy is network utility after the initial optimization.
	Healthy float64
	// Degraded is utility of the stale allocation right after the
	// failure (the failed link carries nothing; crossing bundles starve).
	// This state is not installable — it black-holes the crossing flows —
	// so Recovered is not guaranteed to exceed it: routing the starved
	// demand somewhere real can cost more utility than dropping it.
	Degraded float64
	// Stale is utility of the repaired stale allocation: the installed
	// routing with stranded flows moved off the dead link, which is what
	// the recovery cycle actually warm-starts from. Recovered >= Stale by
	// construction.
	Stale float64
	// Recovered is utility after re-optimizing around the failure.
	Recovered float64
	// ReoptimizeTime is how long the recovery cycle took.
	ReoptimizeTime time.Duration
	// ReoptimizeSteps is the recovery run's committed moves.
	ReoptimizeSteps int
	// RepairedFlows is how many flows the warm-start repair moved off
	// the dead link before re-optimizing.
	RepairedFlows int
}

// Failover runs a link-failure episode on the given instance: optimize,
// fail the hottest link, measure the stale allocation, re-optimize with
// the dead link forbidden. FUBAR is an offline system — this is exactly
// the "periodically adjust" cycle of the abstract reacting to a
// topology change.
func Failover(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, opts core.Options) (*FailoverResult, error) {
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return nil, err
	}
	sol, err := core.Run(ctx, model, opts)
	if err != nil {
		return nil, fmt.Errorf("experiment: healthy optimization: %w", err)
	}
	res := &FailoverResult{Healthy: sol.Utility}

	// Fail the most loaded link of the healthy solution.
	var worst graph.EdgeID = -1
	var worstLoad float64
	for l, load := range sol.Result.LinkLoad {
		if load > worstLoad {
			worstLoad = load
			worst = graph.EdgeID(l)
		}
	}
	if worst < 0 {
		return nil, fmt.Errorf("experiment: no loaded link to fail")
	}
	res.FailedLink = worst
	res.FailedLinkName = topo.LinkName(worst)

	dead, err := topo.WithLinkCapacity(worst, 0)
	if err != nil {
		return nil, err
	}
	deadMat, err := traffic.NewMatrix(dead, mat.Aggregates())
	if err != nil {
		return nil, err
	}
	deadModel, err := flowmodel.New(dead, deadMat)
	if err != nil {
		return nil, err
	}
	// The stale allocation still routes over the dead link.
	deadEval := deadModel.NewEval()
	res.Degraded = deadEval.Evaluate(sol.Bundles).NetworkUtility

	// Recovery: the next offline cycle knows the link is down.
	recOpts := opts
	recOpts.Policy = pathgen.Policy{ForbiddenLinks: pathgen.ForbidLinks(dead, worst)}
	// Warm-start from the installed allocation, repaired so no bundle
	// still crosses the dead link: recovery adjusts the installed
	// routing rather than recomputing the network from scratch, so it
	// can only improve on the repaired stale state (Recovered >= Stale;
	// the pre-repair Degraded number is no floor — see FailoverResult).
	repaired, stats, err := core.RepairWarmStart(dead, deadMat, sol.Bundles,
		recOpts.Policy, recOpts.MaxPathsPerAggregate)
	if err != nil {
		return nil, fmt.Errorf("experiment: warm-start repair: %w", err)
	}
	res.RepairedFlows = stats.MovedFlows
	res.Stale = deadEval.Evaluate(repaired).NetworkUtility
	start := time.Now()
	recOpt, err := core.New(deadModel, recOpts)
	if err != nil {
		return nil, fmt.Errorf("experiment: recovery optimization: %w", err)
	}
	rec, err := recOpt.RunWarm(ctx, repaired)
	if err != nil {
		return nil, fmt.Errorf("experiment: recovery optimization: %w", err)
	}
	res.Recovered = rec.Utility
	res.ReoptimizeTime = time.Since(start)
	res.ReoptimizeSteps = rec.Steps
	return res, nil
}
