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

// newEngine is the engine a stream's first reset builds, for tests that
// drive its stages directly.
func newEngine(opt *core.Optimizer, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) (*engine, error) {
	en := new(engine)
	if err := en.reset(opt, cp, topo, mat, sc, opts); err != nil {
		return nil, err
	}
	return en, nil
}

// stream is Replayer.Stream on an optimizer and storage of the replay's own.
func stream(ctx context.Context, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) iter.Seq2[EpochResult, error] {
	return func(yield func(EpochResult, error) bool) {
		opt, err := newOptimizer(topo, mat, opts)
		if err != nil {
			yield(EpochResult{}, err)
			return
		}
		new(Replayer).Stream(ctx, opt, cp, topo, mat, sc, opts)(yield)
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
// core.Run used to, in place of the one its stream was lent, and a fresh
// instance: new matrices, its repair in the new optimizer's empty scratch,
// a solution of its own, a new engine per stream. It is the oracle the kept
// optimizer and storage are compared against: nothing an epoch computes
// may depend on what the optimizer or the storage held before, in this
// replay or any other. The switch is process-wide, so not for parallel
// tests.
func withFreshOptimizerPerEpoch(f func()) {
	freshOptimizer = core.New
	defer func() { freshOptimizer = nil }()
	f()
}
