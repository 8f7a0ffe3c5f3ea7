package scenario

import (
	"context"
	"iter"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// newOptimizer builds the optimizer a stream's owner lends it: bound to the
// start instance under the replay's core options, as a Session's is.
func newOptimizer(topo *topology.Topology, mat *traffic.Matrix, opts Options) (*core.Optimizer, error) {
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return nil, err
	}
	return core.New(model, opts.Core)
}

// stream is Stream on an optimizer of the replay's own.
func stream(ctx context.Context, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) iter.Seq2[EpochResult, error] {
	return func(yield func(EpochResult, error) bool) {
		opt, err := newOptimizer(topo, mat, opts)
		if err != nil {
			yield(EpochResult{}, err)
			return
		}
		Stream(ctx, opt, cp, topo, mat, sc, opts)(yield)
	}
}

// run is an open-loop replay collected into its Result.
func run(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) (*Result, error) {
	return Run(topo, sc, opts, false, stream(ctx, nil, topo, mat, sc, opts))
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
		stream(ctx, cp, topo, mat, sc, opts)(yield)
	}
}

// runClosedLoop is streamClosedLoop collected into its Result.
func runClosedLoop(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) (*Result, error) {
	return Run(topo, sc, opts, true, streamClosedLoop(ctx, topo, mat, sc, opts))
}

// withFreshOptimizerPerEpoch runs f with every replay epoch building a
// fresh optimizer — generators, arenas, base, scratch — as each epoch's
// core.Run used to, in place of the one its stream was lent. It is the
// oracle the kept optimizer is compared against: nothing an epoch computes
// may depend on what the optimizer did before, in this replay or any other.
// The switch is process-wide, so not for parallel tests.
func withFreshOptimizerPerEpoch(f func()) {
	freshOptimizer = core.New
	defer func() { freshOptimizer = nil }()
	f()
}
