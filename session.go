package fubar

import (
	"context"
	"fmt"
	"iter"
	"log/slog"
	"time"

	"fubar/internal/anneal"
	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
)

// Session is the library's long-lived, context-first handle for one
// (topology, matrix) instance. It owns one optimizer — path memo and trees,
// per-worker evaluation arenas, persistent incremental-evaluation base —
// and everything the session runs, runs on it: Optimize and Anneal share
// the session's traffic model and last committed solution across calls, the
// state a real online controller holds between re-optimizations; Replay
// and ReplayClosedLoop borrow the optimizer, re-binding it to each epoch's
// topology and matrix, so what it has built outlives the epoch and the
// replay, and rebuild each epoch's instance — matrices, warm start,
// solution — in storage the session keeps from replay to replay
// (scenario.Replayer), never in anything the session hands out; and
// closed-loop replays keep the control-plane wiring (switches, install
// generations, ack ledgers) alive across calls.
//
// The lending contract: Optimize, Replay and ReplayClosedLoop on one
// Session may be interleaved freely — an Optimize between two epochs of a
// stream, two streams pulled alternately — and a stream may be abandoned
// at any epoch, or end in an error, with nothing to undo. Every replay
// epoch re-binds the optimizer before it reads it, and Optimize re-binds it
// to the session's own instance whenever a replay has borrowed it since;
// nothing the optimizer keeps carries a result across a re-bind, so each
// call returns what it would on a session that ran nothing else (Last and
// the warm start it feeds are Optimize's alone).
//
// Construct with NewSession and functional options; every method takes
// a context.Context honored at candidate-batch granularity, so
// cancellation and deadlines interrupt optimization between candidate
// evaluations with results deterministic up to the cancellation point.
// Replays stream epochs through iter.Seq2, so a million-epoch scenario
// runs in O(1) memory.
//
// A Session is not safe for concurrent method calls — interleaved is not
// concurrent: two goroutines may not be inside the session at once, a
// stream's epoch included (within one call it parallelizes across
// WithWorkers arenas). Close releases the control-plane sockets if any were
// opened; a Session that never called ReplayClosedLoop holds no resources
// needing Close.
type Session struct {
	topo  *Topology
	mat   *Matrix
	model *Model
	cfg   sessionConfig
	opt   *core.Optimizer
	// lent is set while a replay may have left opt bound to an epoch's
	// instance; Optimize re-binds to the session's own and clears it.
	lent bool
	// replays keeps a replay's epoch instance and scratch for the next one.
	replays scenario.Replayer
	cp      *scenario.ControlPlane
	last    *Solution
	traj    *scenario.TrajectoryRecorder
}

// sessionConfig is the assembled option state: the one replay options
// struct the With* options write into directly and every replay (and the
// control plane) is handed as is, plus what only the session reads.
type sessionConfig struct {
	scenario.Options
	trajPoints int
}

// SessionOption configures a Session at construction
// (functional-options pattern; see With*).
type SessionOption func(*sessionConfig)

// WithWorkers sets the number of parallel candidate evaluators per
// optimization step, each with a private evaluation arena (default
// GOMAXPROCS). Any value commits the identical move sequence.
func WithWorkers(n int) SessionOption {
	return func(c *sessionConfig) { c.Core.Workers = n }
}

// WithBudget bounds each optimization's wall-clock time: every Optimize
// call and every replay epoch's re-optimization runs under a
// context.WithTimeout of d layered beneath the caller's context. It is
// the session's only wall-clock bound besides the caller's own context:
// an optimizer run has no time limit of its own. A truncated run
// publishes its best-so-far solution with StopDeadline (DeadlineMiss on
// closed-loop epochs). Wall-clock budgets make runs machine-dependent;
// leave unset when checking determinism.
func WithBudget(d time.Duration) SessionOption {
	return func(c *sessionConfig) { c.Budget = d }
}

// WithObserver registers a progress callback invoked after the initial
// evaluation and after every committed move of every optimization the
// session runs. Snapshots share the optimizer's result storage: copy
// anything retained beyond the callback.
//
// The callback runs on the goroutine that called Optimize (or drove
// the replay epoch) — never on a worker goroutine — so it may read and
// write caller state without synchronization. A race test pins this
// contract.
func WithObserver(fn func(Snapshot)) SessionOption {
	return func(c *sessionConfig) { c.Core.Trace = fn }
}

// ProgressObserver adapts a structured logger into a WithObserver
// callback: step 0 and every every-th committed step thereafter is
// logged as one record with step, elapsed, utility and congested-link
// fields (every <= 0 defaults to 100). It is the shared progress
// observer the fubar CLI's -v flag and the quickstart example use.
// Like any observer it runs on the optimizer goroutine, never a
// worker.
func ProgressObserver(l *slog.Logger, every int) func(Snapshot) {
	if every <= 0 {
		every = 100
	}
	return func(s Snapshot) {
		if s.Step%every != 0 {
			return
		}
		l.Info("optimize: progress",
			"step", s.Step,
			"elapsed", s.Elapsed.Truncate(time.Millisecond).String(),
			"utility", s.Result.NetworkUtility,
			"congested", len(s.Result.Congested))
	}
}

// WithOptions overlays a full optimizer Options value — the escape
// hatch for tuning knobs without a dedicated option. Later options
// still apply on top.
func WithOptions(opts Options) SessionOption {
	return func(c *sessionConfig) { c.Core = opts }
}

// WithColdStart makes replays re-optimize every epoch from the
// shortest-path placement instead of warm-starting from the installed
// allocation, and makes Optimize ignore the previous solution.
func WithColdStart() SessionOption {
	return func(c *sessionConfig) { c.ColdStart = true }
}

// WithReplicas sets the controller replica count of the closed-loop
// control plane (default 1). Switch ownership shards across replicas by
// rendezvous hashing, an install reaches every replica's switches in one
// round, and ControllerFail / ControllerRecover scenario events kill and re-seat
// individual replicas — a lone replica (the default) turns those events
// into deterministic no-ops. Takes effect when ReplayClosedLoop builds
// the control plane on first use.
func WithReplicas(n int) SessionOption {
	return func(c *sessionConfig) { c.Replicas = n }
}

// WithRuleLease arms the switch agents' fail-safe: an agent that loses
// all controller contact for longer than d applies policy to its
// installed rule table — FailStatic keeps forwarding on the stale table
// (the default everywhere), FailClosed wipes it. A zero d disables the
// lease. Takes effect when ReplayClosedLoop builds the control plane on
// first use.
func WithRuleLease(d time.Duration, policy FailPolicy) SessionOption {
	return func(c *sessionConfig) { c.RuleLease = d; c.LeasePolicy = policy }
}

// WithTrajectory makes the session record a downsampled Trajectory of
// every replay it streams: each Replay / ReplayClosedLoop call starts a
// fresh fixed-budget TrajectoryRecorder (at most points buckets,
// O(points) memory however long the timeline) and folds each epoch in
// as it is yielded. Read it with Session.Trajectory — mid-replay for
// the buckets so far, or after the stream ends for the full series.
func WithTrajectory(points int) SessionOption {
	return func(c *sessionConfig) { c.trajPoints = points }
}

// WithLogger directs the session's structured progress records —
// Optimize completions, closed-loop epoch lines, control-plane
// diagnostics — to l; by default they are discarded. Records carry
// their data as slog fields (epoch, steps, utility, wire_flowmods, …)
// rather than pre-formatted text, so handlers can route them to stderr
// or JSON sinks without interleaving with -json output on stdout.
func WithLogger(l *slog.Logger) SessionOption {
	return func(c *sessionConfig) { c.Logger = l }
}

// WithTelemetry attaches a metrics registry and tracer to the session:
// every optimization step, replay epoch and control-plane install the
// session runs is counted and timed into t. Read the counters with
// Session.Metrics (or t.Snapshot), serve them live with
// TelemetryHandler. Telemetry never alters optimizer behavior — runs
// are bit-identical with and without it — and disabled (nil) telemetry
// costs nothing on the hot path.
func WithTelemetry(t *Telemetry) SessionOption {
	return func(c *sessionConfig) { c.Core.Telemetry = t }
}

// NewSession builds the session state — traffic model, path generator,
// optimizer and arenas — once, for any number of subsequent calls.
func NewSession(topo *Topology, mat *Matrix, opts ...SessionOption) (*Session, error) {
	if topo == nil || mat == nil {
		return nil, fmt.Errorf("fubar: nil topology or matrix")
	}
	s := &Session{topo: topo, mat: mat}
	for _, o := range opts {
		o(&s.cfg)
	}
	if s.cfg.Logger == nil {
		s.cfg.Logger = slog.New(slog.DiscardHandler)
	}
	model, err := flowmodel.New(topo, mat)
	if err != nil {
		return nil, err
	}
	s.model = model
	opt, err := core.New(model, s.cfg.Core)
	if err != nil {
		return nil, err
	}
	s.opt = opt
	return s, nil
}

// Topology returns the session's topology.
func (s *Session) Topology() *Topology { return s.topo }

// Matrix returns the session's traffic matrix.
func (s *Session) Matrix() *Matrix { return s.mat }

// Model returns the session's prepared traffic model (shared storage:
// see Model's concurrency contract).
func (s *Session) Model() *Model { return s.model }

// Last returns the most recent Optimize solution, or nil before the
// first call. It is the warm start the next Optimize resumes from.
func (s *Session) Last() *Solution { return s.last }

// Metrics returns a point-in-time snapshot of the session's telemetry
// registry — every counter, gauge and histogram accumulated by
// optimizations, replays and installs so far. The snapshot is a plain
// JSON-marshalable value, safe to retain. Without WithTelemetry it is
// empty.
func (s *Session) Metrics() MetricsSnapshot {
	return s.cfg.Core.Telemetry.Snapshot()
}

// Reset drops the session's warm state: the next Optimize starts from
// the shortest-path placement again.
func (s *Session) Reset() { s.last = nil }

// Close releases the session's control-plane sockets, if
// ReplayClosedLoop ever opened them. Safe to call more than once.
func (s *Session) Close() error {
	if s.cp != nil {
		err := s.cp.Close()
		s.cp = nil
		return err
	}
	return nil
}

// withBudget layers the session's per-run budget under ctx.
func (s *Session) withBudget(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.Budget > 0 {
		return context.WithTimeout(ctx, s.cfg.Budget)
	}
	return ctx, func() {}
}

// Optimize runs FUBAR on the session instance under ctx, reusing the
// session's arenas and — after the first call — warm-starting from the
// last committed solution (an already-optimal allocation re-optimizes
// in O(1) steps, the idempotence a periodic controller relies on;
// WithColdStart or Reset restore cold starts). Cancellation returns the
// partial solution with Stop == StopCancelled; an expired deadline or
// WithBudget timeout returns the best-so-far solution with
// StopDeadline. The move sequence is deterministic up to any
// truncation point.
func (s *Session) Optimize(ctx context.Context) (*Solution, error) {
	ctx, cancel := s.withBudget(ctx)
	defer cancel()
	if s.lent {
		if err := s.opt.Rebind(s.model, s.cfg.Core); err != nil {
			return nil, err
		}
		s.lent = false
	}
	var initial []flowmodel.Bundle
	if s.last != nil && !s.cfg.ColdStart {
		initial = s.last.Bundles
	}
	// With telemetry on, the run's step and proof spans hang under one
	// session.optimize root span.
	var tracer *telemetry.Tracer
	if t := s.cfg.Core.Telemetry; t != nil {
		tracer = t.Tracer
	}
	var root telemetry.Span
	var start time.Time
	if tracer != nil {
		start = time.Now()
		root = telemetry.SpanOf(ctx).Child(tracer.NewID())
		ctx = telemetry.WithSpan(ctx, root)
	}
	sol, err := s.opt.RunWarm(ctx, initial)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		tracer.Emit("session.optimize", start, root,
			telemetry.Float(telemetry.KeyUtility, sol.Utility), telemetry.Int(telemetry.KeySteps, sol.Steps))
	}
	s.last = sol
	s.cfg.Logger.Info("optimize: done",
		"utility", sol.Utility, "steps", sol.Steps, "stop", sol.Stop.String())
	return sol, nil
}

// Anneal runs the naive simulated-annealing comparator (§2.5) on the
// session's model under ctx; cancellation returns the best-so-far
// state.
func (s *Session) Anneal(ctx context.Context, opts AnnealOptions) (*AnnealSolution, error) {
	return anneal.Run(ctx, s.model, opts)
}

// Replay replays a scenario timeline over the session instance through
// repeated warm-started re-optimization, yielding one EpochRecord per
// epoch as it completes — constant memory however long the timeline.
// Replays are deterministic per scenario seed at any worker count.
// Cancelling ctx ends the stream at the next epoch or candidate-batch
// boundary with a final yielded error; epochs already yielded stand.
func (s *Session) Replay(ctx context.Context, sc Scenario) iter.Seq2[EpochRecord, error] {
	return s.replay(ctx, nil, sc)
}

// replay streams sc on the session's optimizer, open loop or through cp.
// The optimizer counts as lent from the moment the stream first runs and
// again every time it resumes: an Optimize between two epochs re-binds it
// and the next epoch takes it back. Under WithTrajectory each yielded epoch
// is folded into a fresh per-replay recorder before the caller sees it.
func (s *Session) replay(ctx context.Context, cp *scenario.ControlPlane, sc Scenario) iter.Seq2[EpochRecord, error] {
	seq := s.replays.Stream(ctx, s.opt, cp, s.topo, s.mat, sc, s.cfg.Options)
	var rec *scenario.TrajectoryRecorder
	if s.cfg.trajPoints > 0 {
		rec = scenario.NewTrajectoryRecorder(sc.Name, sc.Epochs, s.cfg.trajPoints)
		s.traj = rec
	}
	return func(yield func(EpochRecord, error) bool) {
		s.lent = true
		for er, err := range seq {
			if err == nil && rec != nil {
				rec.Observe(&er)
			}
			if !yield(er, err) {
				return
			}
			s.lent = true
		}
	}
}

// Trajectory returns the downsampled trajectory of the most recent
// replay started under WithTrajectory — the complete series once that
// replay's stream has ended, or the buckets observed so far while it is
// still running. Without the option (or before the first replay) it is
// the zero Trajectory.
func (s *Session) Trajectory() Trajectory {
	if s.traj == nil {
		return Trajectory{}
	}
	return s.traj.Trajectory()
}

// ReplayAll is Replay collected into a ScenarioResult for callers that
// want the whole epoch table at once (tables, JSON records).
func (s *Session) ReplayAll(ctx context.Context, sc Scenario) (*ScenarioResult, error) {
	return scenario.Run(s.topo, sc, s.cfg.Options, false, s.Replay(ctx, sc))
}

// ReplayClosedLoop replays a scenario with the SDN control plane in the
// loop — simulated switches over loopback TCP, counter-based matrix
// estimation, budgeted re-optimization (WithBudget), make-before-break
// pricing, differential wire installs with counted FlowMods — yielding
// one EpochRecord (Installs attached) per epoch. The control plane is
// built on first use and persists across calls: switch tables, install
// generations and ack ledgers carry over exactly as reused hardware
// would. Close releases it.
func (s *Session) ReplayClosedLoop(ctx context.Context, sc Scenario) iter.Seq2[EpochRecord, error] {
	if s.cp == nil {
		cp, err := scenario.NewControlPlane(s.topo, s.mat, s.cfg.Options)
		if err != nil {
			return func(yield func(EpochRecord, error) bool) { yield(EpochRecord{}, err) }
		}
		s.cp = cp
	}
	return s.replay(ctx, s.cp, sc)
}

// ReplayClosedLoopAll is ReplayClosedLoop collected into a
// ScenarioResult, with the install sequence folded into
// ScenarioResult.Installs.
func (s *Session) ReplayClosedLoopAll(ctx context.Context, sc Scenario) (*ScenarioResult, error) {
	return scenario.Run(s.topo, sc, s.cfg.Options, true, s.ReplayClosedLoop(ctx, sc))
}
