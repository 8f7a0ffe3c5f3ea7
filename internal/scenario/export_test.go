package scenario

import (
	"context"
	"iter"

	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// run is an open-loop replay collected into its Result.
func run(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) (*Result, error) {
	return Run(topo, sc, opts, false, Stream(ctx, nil, topo, mat, sc, opts))
}

// streamClosedLoop is a closed-loop replay over a private control plane
// that lives as long as the stream is consumed.
func streamClosedLoop(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) iter.Seq2[EpochResult, error] {
	return func(yield func(EpochResult, error) bool) {
		cp, err := NewControlPlane(topo, mat, opts)
		if err != nil {
			yield(EpochResult{}, err)
			return
		}
		defer cp.Close()
		Stream(ctx, cp, topo, mat, sc, opts)(yield)
	}
}

// runClosedLoop is streamClosedLoop collected into its Result.
func runClosedLoop(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) (*Result, error) {
	return Run(topo, sc, opts, true, streamClosedLoop(ctx, topo, mat, sc, opts))
}

// withFreshOptimizerPerEpoch runs f with every replay epoch starting on an
// engine that holds no optimizer, so each builds a fresh one — generators,
// arenas, base pair, scratch — as each epoch's core.Run used to. It is the
// oracle the kept optimizer is compared against: nothing an epoch computes
// may depend on what the optimizer did in the epochs before. The switch is
// process-wide, so not for parallel tests.
func withFreshOptimizerPerEpoch(f func()) {
	perEpoch = func(en *engine) { en.opt = nil }
	defer func() { perEpoch = nil }()
	f()
}
