// Package fubar is a from-scratch reproduction of "FUBAR: Flow Utility
// Based Routing" (Gvozdiev, Karp, Handley — HotNets-XIII, 2014): an
// offline, centralized traffic-engineering system that routes aggregates
// of flows so as to maximize total network utility, where each flow's
// utility is the product of a bandwidth component and a delay component.
//
// # Sessions
//
// The primary entry point is the Session: one long-lived handle per
// (topology, traffic matrix) instance that builds the traffic model,
// path generator and per-worker evaluation arenas once and keeps them —
// plus the last committed solution, the persistent incremental
// evaluation base, and (for closed-loop replays) the control-plane
// wiring — alive across calls, the way a real online controller holds
// state between re-optimizations. Every method is context-first:
// cancellation and deadlines are honored at candidate-batch granularity
// with results deterministic up to the truncation point.
//
//	topo, _ := fubar.HurricaneElectric(100 * fubar.Mbps)
//	mat, _ := fubar.GenerateTraffic(topo, fubar.DefaultGenConfig(1))
//	s, _ := fubar.NewSession(topo, mat, fubar.WithWorkers(8))
//	sol, _ := s.Optimize(ctx)
//	fmt.Printf("utility %.3f (shortest-path %.3f)\n", sol.Utility, sol.InitialUtility)
//
// Sessions are configured with functional options — WithWorkers,
// WithBudget, WithObserver, WithColdStart, WithLogger, WithTelemetry,
// and WithOptions for every other optimizer knob (path policy included)
// — and expose the optimizer (Optimize), the annealing comparator
// (Anneal) and scenario replays. A second Optimize call
// warm-starts from the previous solution: re-optimizing an unchanged
// instance is a cheap no-op, exactly the idempotence a periodic
// controller wants.
//
// Replays stream. Session.Replay and Session.ReplayClosedLoop return
// iter.Seq2[EpochRecord, error]: epochs arrive one at a time as they
// complete, so a million-epoch timeline runs in constant memory, a
// consumer can break out early, and a cancelled context ends the stream
// at the next epoch boundary with the already-yielded epochs standing.
// ReplayAll / ReplayClosedLoopAll collect the stream into a
// ScenarioResult when the whole table is wanted at once.
//
// A replay runs on the session's own optimizer, lent for the stream's
// life and re-bound to each epoch's topology and matrix, so path memo,
// arenas and scratch outlive the epoch and the replay. Optimize, Replay
// and ReplayClosedLoop on one Session may be interleaved — an Optimize
// between two epochs, two streams pulled in turn — and a stream abandoned
// mid-way or ended by an error leaves nothing to undo: Optimize re-binds
// the optimizer to the session's instance whenever a replay has borrowed
// it, and returns what it would had none run. They may not run
// concurrently; no Session method may.
//
// # What else is here
//
// The Session is the one front door; there are no free-function forms of
// its methods. Logging is structured log/slog: WithLogger(l) receives
// every progress and diagnostic record the session emits — Optimize
// completions, closed-loop epoch lines, controller and agent diagnostics
// — with the data as slog fields (epoch, steps, utility, wire_flowmods,
// …) rather than pre-formatted text.
//
// Besides the Session the package re-exports what cmd/, examples/ and
// benchmark/ build instances and deployments from — and nothing else: an
// exported func, var or const that none of them names is not API (a test
// pins this), and everything behind the facade is reachable in-module as
// internal/<package>:
//
//   - topologies (the Hurricane Electric 31-POP substitute, generators,
//     a text format): HurricaneElectric, RingTopology, ParseTopology, …
//   - traffic matrices (§3 workload): GenerateTraffic, DefaultGenConfig,
//     SparseTraffic, NewMatrix
//   - baselines (§3): ShortestPathRouting, UpperBound
//   - the §3 evaluation configurations (Figs 3–6): Provisioned,
//     Underprovisioned, Prioritized, RelaxedDelay, ExperimentInstance
//   - scenario construction: DiurnalScenario, FailureStormScenario,
//     CrisisScenario, SoakScenario, ScenarioByName (ScenarioNames lists
//     the canned names), and the large-instance presets
//     (ScalePresetByName, ScaleInstance)
//   - the SDN measurement substrate (§2.1–2.2): NewSim, NewEstimator
//   - traffic classification (§1): NewClassifier(overrides…)
//   - dynamic model validation: SimulateDynamics(…, seed), ValidateModel
//   - the online SDN control plane over TCP (§5): Session.ReplayClosedLoop,
//     shaped by WithReplicas and WithRuleLease (FailStatic, FailClosed)
//   - the MPLS-TE deployment substrate (§5): NewLSPDB, SyncToMPLS
//   - the telemetry substrate: NewTelemetry, WithTelemetry,
//     Session.Metrics, TelemetryHandler (live Prometheus /metrics,
//     /debug/pprof/, JSONL /trace), ProgressObserver, CheckExposition
//   - the controller daemon: NewDaemon, DaemonConfig, WithTrajectory,
//     Session.Trajectory, WriteEpochsJSONL (see cmd/fubard)
//
// # Observability
//
// WithTelemetry(NewTelemetry()) attaches an allocation-free metrics
// registry and a span tracer to a session: optimizer steps, delta
// evaluations, replay epochs and control-plane installs are counted
// and timed (metric names follow fubar_<subsystem>_<metric>[_total]).
// Session.Metrics returns a JSON-marshalable snapshot; TelemetryHandler
// serves it live (Prometheus text /metrics, /debug/pprof/, JSONL
// /trace — the CLIs expose it via -listen). Telemetry never changes
// optimizer behavior: instrumented runs are bit-identical, and the
// measured overhead is benchmark/'s trace.overhead_frac. Observer
// callbacks run on the goroutine that called the session method, never
// on a worker.
//
// # Cancellation and deadlines
//
// Contexts reach the optimizer's pass loop: between candidate batches
// the run checks ctx, so one batch is the cancellation granularity and
// the committed move prefix is deterministic. A context deadline (or
// WithBudget timeout) stops a run with the best-so-far solution and
// Stop == StopDeadline — the paper's "re-optimize within the
// measurement interval", which closed-loop replays implement as a
// per-epoch context.WithTimeout and record as DeadlineMiss.
// Cancellation stops a run with Stop == StopCancelled (partial solution
// returned, no error); a replay stream surfaces the context error as
// its final yield instead of an epoch.
//
// # Concurrency
//
// A traffic Model is immutable and holds no scratch: every evaluation runs
// on an Eval arena its caller obtains from Model.NewEval, so any number of
// goroutines can evaluate one model concurrently as long as each owns its
// arena. The optimizer exploits this: WithWorkers (default
// GOMAXPROCS) sets how many goroutines evaluate each step's candidate
// moves in parallel, each on a private arena. Candidate collection is
// sharded across the same worker count (per-shard path generators,
// index-ordered merge), and each worker scores candidates by
// patch-and-revert on a persistent trial buffer — two entries written
// and reverted per candidate, no per-candidate list copy. Move
// selection replays candidates in a fixed order, so every worker count
// commits the exact same move sequence — parallelism changes wall-clock
// time, never the solution (the one exception is a wall-clock deadline,
// which cuts faster runs off after more committed steps). A Session
// itself is for one goroutine; the parallelism lives inside its calls.
//
// # Incremental evaluation
//
// Each candidate move perturbs one aggregate, so by default the
// optimizer evaluates candidates incrementally: the committed
// allocation is captured once as a base
// (ModelEval.EvaluateBase) and each candidate re-solves only the
// affected sub-problem against it (ModelEval.EvaluateDelta) — the
// fixpoint of links whose crossing bundles changed, propagated through
// binding (capacity-constraining) links, with optimistic exclusion of
// demand-frozen bundles and slack links verified by an in-fill guard
// and a monotone-load check. Delta results are bit-identical to full
// evaluations (rates, loads, congested set, utilities), so the
// committed move sequence is the same as under full evaluation at any
// worker count; only the cost changes. Full evaluation per candidate is
// not a mode an operator can pick: Options has no field for it, and it
// survives as the differential oracle of internal/core's tests, behind an
// unexported switch only they set (core.WithFullEvaluation).
//
// Every evaluation a run makes is of one list, an entry per path-set
// entry with zero-flow placeholders, and the base persists across steps:
// a committed move is folded into it in place (ModelEval.CommitDelta),
// and when collection grows a path set the new placeholders are inserted
// into it in place (ModelEval.RemapBase), so steady-state
// optimization runs no per-step full evaluations at all — Solution.Base
// counts captures vs remaps vs rebases, and Solution.Delta the
// candidate-level counters (benchmark/'s flowmodel.* metrics time the
// same calls per candidate).
//
// # Scenario replay
//
// The paper's system "periodically adjusts" routing as demand and
// topology change. Session.Replay makes that a first-class experiment: a
// Scenario is a seeded timeline of events (diurnal demand scaling,
// per-aggregate churn, aggregate arrival/departure, link failure and
// recovery, capacity changes, correlated SRLG failures, maintenance
// windows) replayed in discrete epochs. Each epoch re-optimizes
// warm-started from the previous epoch's installed bundles — a repair
// pass first remaps, drops and rescales bundles that the epoch's events
// invalidated, so a warm start never fails validation —
// and records the stale allocation's utility, the re-optimized utility,
// the optimizer's effort, and the routing churn (paths changed, flows
// moved, flow-table operations) a controller would push. Replays are
// deterministic per seed at any worker count. See the
// examples/scenario-replay walkthrough and `fubar -scenario <name>`.
//
// # Closed-loop replay
//
// Session.ReplayClosedLoop puts the control plane inside that loop,
// reproducing the paper's full deployment cycle per epoch: the events
// hit a simulated SDN network (switch rule tables survive the epoch
// boundary — and, on a session, whole-replay boundaries — as hardware
// does), the controller pushes the repaired routing over the TCP
// control protocol, polls per-switch counters, reconstructs the traffic
// matrix from them (§2.1–2.2), re-optimizes warm-started under the
// WithBudget per-epoch timeout (overruns publish the best-so-far
// solution and record a deadline miss), prices the transition
// make-before-break (transient double-reservation headroom, teardown
// counts), and installs the new allocation
// differentially — only switches whose table changed receive a
// FlowMod. Per-epoch FlowMods are therefore counted wire messages,
// cross-checked against the switches' own ack ledger, not bundle-diff
// estimates; EpochRecord keeps both so they can be compared, plus the
// epoch's install records. With no budget the whole loop is
// deterministic per seed at any worker count, install sequence
// included. See `fubar -scenario <name> -ctrlplane`.
//
// # HA control plane
//
// WithReplicas(n) runs the closed-loop controller as a replica set:
// switch ownership shards across seats by rendezvous hashing, an install
// reaches every seat's switches in one round, and controller-fail / controller-recover scenario
// events (canned name "ctrlstorm") kill and re-seat replicas at epoch
// boundaries. Orphaned switches re-home
// onto survivors, which push their cached rule tables back as verified
// resyncs; election-epoch fencing stops deposed seats from rolling a
// switch back, and every resync is reconciled against the switches'
// ack ledger before the epoch proceeds. WithRuleLease arms the agents'
// fail-safe: an agent orphaned past the lease keeps its table
// (FailStatic) or wipes it (FailClosed), and reconnects with jittered
// exponential backoff either way. Failovers and resyncs land on each
// EpochRecord and stay deterministic; `fubar -scenario ctrlstorm
// -ctrlplane -replicas 3` drives the whole machinery from the CLI.
//
// # Daemon and multi-tenancy
//
// NewDaemon wraps sessions in a long-running multi-tenant controller
// service (cmd/fubard is the binary): each named tenant owns one
// Session over its own (topology, matrix) instance — created from an
// inline topology text or a named preset — with a private worker
// budget, an isolated telemetry registry, and an independent
// lifecycle, behind a streaming HTTP+JSON API. POST /v1/tenants
// creates, POST /v1/tenants/{id}/optimize runs a deadline-aware
// optimization and returns the SolutionSummary, GET
// /v1/tenants/{id}/replay streams a replay (open or closed loop) as
// JSON Lines riding the iter.Seq2 epoch stream — one EpochRecord per
// line in O(1) memory, a disconnecting client cancels the loop at the
// next epoch boundary — and GET /v1/tenants/{id}/metrics scrapes that
// tenant's registry alone. A daemon-level scheduler admits tenant work
// against the global -max-workers cap (calls on one tenant serialize;
// distinct tenants run concurrently), and SIGINT/SIGTERM drains:
// in-flight streams flush a final error line, every tenant's control
// plane is released, then the listener closes. The streamed epochs are
// bit-identical to an in-process Session replay of the same instance
// (Elapsed aside); TestDaemonTwoConcurrentTenants asserts exactly that.
// WithTrajectory(points) makes any session fold its replay stream into
// a fixed-size Trajectory (daemon tenants get this automatically, at
// /v1/tenants/{id}/trajectory), and WriteEpochsJSONL is the shared
// encoder `fubar -json -scenario <name>` reuses for CLI streaming. See
// examples/daemon-client for a full client walkthrough.
//
// See DESIGN.md for the system inventory (including the Session
// lifecycle).
package fubar
