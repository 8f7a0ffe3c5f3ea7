package telemetry

import "sync"

// Telemetry bundles the metrics registry and the span tracer that are
// threaded through the optimizer, the scenario engine and the control
// plane. The zero value is not usable; call New. A nil *Telemetry is a
// valid "disabled" value everywhere — subsystem constructors below
// return nil handles, whose methods no-op.
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer

	// The handle bundles, each built by the first call that asks for it.
	core      once[CoreMetrics]
	scenario  once[ScenarioMetrics]
	ctrlplane once[CtrlplaneMetrics]
}

// once is a handle bundle built on first use, safely for concurrent
// callers.
type once[T any] struct {
	once sync.Once
	v    *T
}

func (o *once[T]) get(build func() *T) *T {
	o.once.Do(func() { o.v = build() })
	return o.v
}

// New returns a fresh telemetry bundle with an empty registry and an
// empty trace ring.
func New() *Telemetry {
	return &Telemetry{Registry: NewRegistry(), Tracer: NewTracer()}
}

// Snapshot captures the registry; nil-safe.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil || t.Registry == nil {
		return Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	}
	return t.Registry.Snapshot()
}

// Metric names follow fubar_<subsystem>_<metric>[_total|_seconds].
// Counters end in _total, wall-time histograms in _seconds; gauges are
// bare. The handle bundles below are the only place names are spelled
// out, so a subsystem cannot drift from the scheme.

// CoreMetrics are the optimizer-step metrics (see DESIGN.md
// "Observability").
type CoreMetrics struct {
	Runs                *Counter
	Steps               *Counter
	Escalations         *Counter
	CandidatesCollected *Counter
	RefutedByLink       *Counter
	RefutedByLevel      *Counter
	CandidatesEvaluated *Counter
	TrialResyncs        *Counter
	ListBuilds          *Counter
	StepSeconds         *Histogram
	ProofSeconds        *Histogram

	DeltaCalls       *Counter
	UtilityOnlyCalls *Counter
	DeltaFallbacks   *Counter
	DeltaExpansions  *Counter

	// Path lookups by how they were answered, the trees built, and the
	// nodes searches and trees settled.
	PathMemoHits    *Counter
	PathDonated     *Counter
	PathTreeAnswers *Counter
	PathSearches    *Counter
	PathTreesBuilt  *Counter
	PathSettled     *Counter
}

// Core returns the core-subsystem handles, built once per Telemetry: an
// optimizer re-bound every epoch asks for them every epoch. Returns nil
// when t is nil, and every handle method tolerates a nil receiver via
// the guards at call sites (callers check the bundle pointer once).
func (t *Telemetry) Core() *CoreMetrics {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.core.get(t.buildCore)
}

func (t *Telemetry) buildCore() *CoreMetrics {
	r := t.Registry
	return &CoreMetrics{
		Runs:                r.Counter("fubar_core_runs_total", "Optimizer runs started."),
		Steps:               r.Counter("fubar_core_steps_total", "Committed optimization moves."),
		Escalations:         r.Counter("fubar_core_escalations_total", "Move-size escalations: local optima at which no candidate improved utility and the optimizer retried with a larger move."),
		CandidatesCollected: r.Counter("fubar_core_candidates_collected_total", "Candidate moves collected over the bundles crossing the stepped link."),
		RefutedByLink:       r.Counter(`fubar_core_refuted_bundles_total{rule="link"}`, refutedBundlesHelp),
		RefutedByLevel:      r.Counter(`fubar_core_refuted_bundles_total{rule="level"}`, refutedBundlesHelp),
		CandidatesEvaluated: r.Counter("fubar_core_candidates_evaluated_total", "Candidate moves scored by workers."),
		TrialResyncs:        r.Counter("fubar_core_trial_resyncs_total", "Worker trial buffers resynced with a full copy of the bundle list; only a layout change (fubar_core_list_builds_total) calls for one, as commits patch synced buffers in place."),
		ListBuilds:          r.Counter("fubar_core_list_builds_total", "Builds of an optimizer run's bundle list: one per run, plus one per step whose collection appended a path to a set."),
		StepSeconds:         r.Histogram("fubar_core_step_seconds", "Wall time of one optimizer step.", SecondsBuckets),
		ProofSeconds:        r.Histogram("fubar_core_proof_seconds", "Wall time of the commit-free passes that ended a run at a local optimum.", SecondsBuckets),
		DeltaCalls:          r.Counter("fubar_eval_delta_calls_total", "Full-result incremental (delta) evaluations."),
		UtilityOnlyCalls:    r.Counter("fubar_eval_utility_only_calls_total", "Utility-only incremental evaluations."),
		DeltaFallbacks:      r.Counter("fubar_eval_delta_fallbacks_total", "Delta evaluations that broke their contract (no base, a list the base does not describe) and ran a full recompute; 0 in a correct run."),
		DeltaExpansions:     r.Counter("fubar_eval_delta_expansions_total", "Delta sub-problem re-runs: fills thrown away and solved again wider."),
		PathMemoHits:        r.Counter(`fubar_pathgen_lookups_total{result="memo"}`, pathLookupsHelp),
		PathDonated:         r.Counter(`fubar_pathgen_lookups_total{result="donor"}`, pathLookupsHelp),
		PathTreeAnswers:     r.Counter(`fubar_pathgen_lookups_total{result="tree"}`, pathLookupsHelp),
		PathSearches:        r.Counter(`fubar_pathgen_lookups_total{result="search"}`, pathLookupsHelp),
		PathTreesBuilt:      r.Counter("fubar_pathgen_trees_built_total", "Shortest-path trees built to answer path lookups."),
		PathSettled:         r.Counter("fubar_pathgen_settled_total", "Nodes settled by path searches and tree builds."),
	}
}

const refutedBundlesHelp = "Bundles collection did not enumerate because a failed step had already scored their candidates, by the rule that says so: a link that failed earlier in the same pass, or the escalation level below at an unchanged move size."

const pathLookupsHelp = "Path lookups, by what answered them: the memo, a narrower set's donated answer, a shortest-path tree, or a search."

// ScenarioMetrics are the scenario-epoch metrics.
type ScenarioMetrics struct {
	Epochs           *Counter
	EpochSeconds     *Histogram
	WarmStarts       *Counter
	RepairDropped    *Counter
	RepairMovedFlows *Counter
	PathsChanged     *Counter
	FlowsMoved       *Counter
}

// Scenario returns the scenario-subsystem handles, built once per
// Telemetry; nil-safe.
func (t *Telemetry) Scenario() *ScenarioMetrics {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.scenario.get(t.buildScenario)
}

func (t *Telemetry) buildScenario() *ScenarioMetrics {
	r := t.Registry
	return &ScenarioMetrics{
		Epochs:           r.Counter("fubar_scenario_epochs_total", "Scenario epochs optimized."),
		EpochSeconds:     r.Histogram("fubar_scenario_epoch_seconds", "Wall time of one scenario epoch optimization.", SecondsBuckets),
		WarmStarts:       r.Counter("fubar_scenario_warm_starts_total", "Epochs seeded from the previous installed allocation."),
		RepairDropped:    r.Counter("fubar_scenario_repair_dropped_total", "Installed bundles dropped by warm-start repair."),
		RepairMovedFlows: r.Counter("fubar_scenario_repair_moved_flows_total", "Flows rerouted by warm-start repair."),
		PathsChanged:     r.Counter("fubar_scenario_paths_changed_total", "Path assignments changed between installed epochs."),
		FlowsMoved:       r.Counter("fubar_scenario_flows_moved_total", "Flows moved between installed epochs."),
	}
}

// CtrlplaneMetrics are the control-plane install metrics.
type CtrlplaneMetrics struct {
	Installs       *Counter
	WireFlowMods   *Counter
	WireRules      *Counter
	InstallAcks    *Counter
	DeadlineMisses *Counter
	MBBSetups      *Counter
	MBBTeardowns   *Counter
	Failovers      *Counter
	RPCRetries     *Counter
	ExpiredRules   *Counter
	Resyncs        *Counter
	MBBHeadroom    *Gauge
	TrueUtility    *Gauge
}

// Ctrlplane returns the control-plane handles, built once per
// Telemetry; nil-safe.
func (t *Telemetry) Ctrlplane() *CtrlplaneMetrics {
	if t == nil || t.Registry == nil {
		return nil
	}
	return t.ctrlplane.get(t.buildCtrlplane)
}

func (t *Telemetry) buildCtrlplane() *CtrlplaneMetrics {
	r := t.Registry
	return &CtrlplaneMetrics{
		Installs:       r.Counter("fubar_ctrlplane_installs_total", "Differential allocation installs pushed to the fabric."),
		WireFlowMods:   r.Counter("fubar_ctrlplane_wire_flowmods_total", "FlowMod messages sent on the wire."),
		WireRules:      r.Counter("fubar_ctrlplane_wire_rules_total", "Rules carried by wire FlowMods."),
		InstallAcks:    r.Counter("fubar_ctrlplane_install_acks_total", "FlowModAck messages received."),
		DeadlineMisses: r.Counter("fubar_ctrlplane_deadline_misses_total", "Epochs whose optimization overran the epoch deadline."),
		MBBSetups:      r.Counter("fubar_ctrlplane_mbb_setups_total", "Make-before-break transient setups priced."),
		MBBTeardowns:   r.Counter("fubar_ctrlplane_mbb_teardowns_total", "Make-before-break teardowns priced."),
		Failovers:      r.Counter("fubar_ctrlplane_failovers_total", "Controller replica failovers (election epoch bumps)."),
		RPCRetries:     r.Counter("fubar_ctrlplane_rpc_retries_total", "Controller-to-agent RPC attempts beyond the first."),
		ExpiredRules:   r.Counter("fubar_ctrlplane_expired_rules_total", "Rules expired by agents whose lease ran out."),
		Resyncs:        r.Counter("fubar_ctrlplane_resyncs_total", "Rule-table resyncs verified after switches re-homed."),
		MBBHeadroom:    r.Gauge("fubar_ctrlplane_mbb_headroom", "Worst-link headroom of the last MBB transition plan."),
		TrueUtility:    r.Gauge("fubar_ctrlplane_true_utility", "Utility of the installed allocation under the true matrix."),
	}
}

// DaemonMetrics are the controller-daemon metrics: tenant lifecycle,
// request traffic, the worker-budget scheduler, streamed epochs, and the
// process's health, read when the daemon's /metrics is scraped. They live
// in the daemon's own registry, not the per-tenant ones.
type DaemonMetrics struct {
	Tenants        *Gauge
	TenantsCreated *Counter
	TenantsDeleted *Counter
	Requests       *Counter
	Optimizes      *Counter
	Replays        *Counter
	StreamEpochs   *Counter
	WorkersInUse   *Gauge
	WorkerWaits    *Counter
	OptimizeSecs   *Histogram

	// Health, set at each scrape: from runtime/metrics, the scheduler's
	// queue, and every tenant's requests in flight.
	Goroutines    *Gauge
	HeapLive      *Gauge
	GCCPUFraction *Gauge
	SchedLatency  *Gauge
	QueueDepth    *Gauge
	OldestRequest *Gauge
}

// Daemon builds (idempotently) the daemon-subsystem handles; nil-safe.
func (t *Telemetry) Daemon() *DaemonMetrics {
	if t == nil || t.Registry == nil {
		return nil
	}
	r := t.Registry
	return &DaemonMetrics{
		Tenants:        r.Gauge("fubar_daemon_tenants", "Tenants currently registered."),
		TenantsCreated: r.Counter("fubar_daemon_tenants_created_total", "Tenants created over the daemon's lifetime."),
		TenantsDeleted: r.Counter("fubar_daemon_tenants_deleted_total", "Tenants deleted (control plane released)."),
		Requests:       r.Counter("fubar_daemon_requests_total", "HTTP API requests served."),
		Optimizes:      r.Counter("fubar_daemon_optimizes_total", "Tenant optimize calls completed."),
		Replays:        r.Counter("fubar_daemon_replays_total", "Tenant replay streams completed."),
		StreamEpochs:   r.Counter("fubar_daemon_stream_epochs_total", "Epoch records streamed to replay clients."),
		WorkersInUse:   r.Gauge("fubar_daemon_workers_in_use", "Worker-budget tokens currently held by tenant work."),
		WorkerWaits:    r.Counter("fubar_daemon_worker_waits_total", "Admissions that had to wait for worker-budget tokens."),
		OptimizeSecs:   r.Histogram("fubar_daemon_optimize_seconds", "Wall time of one tenant optimize call.", SecondsBuckets),
		Goroutines:     r.Gauge("fubar_daemon_goroutines", "Goroutines in the daemon process."),
		HeapLive:       r.Gauge("fubar_daemon_heap_live_bytes", "Heap bytes marked live by the last garbage collection; 0 before the first."),
		GCCPUFraction:  r.Gauge("fubar_daemon_gc_cpu_fraction", "Share of the process's CPU time spent in the garbage collector since it started."),
		SchedLatency:   r.Gauge("fubar_daemon_sched_latency_p99_seconds", "99th percentile of the time goroutines waited runnable before running, since the process started."),
		QueueDepth:     r.Gauge("fubar_daemon_queue_depth", "Tenant calls waiting for worker-budget tokens."),
		OldestRequest:  r.Gauge("fubar_daemon_oldest_request_seconds", "Age of the oldest tenant request in flight across every tenant; 0 when none is."),
	}
}

// TenantMetrics are the daemon-side handles registered into each
// tenant's own isolated registry at create time, so a fresh tenant's
// /metrics exposes its identity before its session records anything.
type TenantMetrics struct {
	Workers *Gauge
	Seed    *Gauge
	// OldestRequest is set when the tenant's /metrics is scraped.
	OldestRequest *Gauge
}

// Tenant builds (idempotently) the per-tenant identity handles;
// nil-safe.
func (t *Telemetry) Tenant() *TenantMetrics {
	if t == nil || t.Registry == nil {
		return nil
	}
	r := t.Registry
	return &TenantMetrics{
		Workers:       r.Gauge("fubar_tenant_workers", "This tenant's worker budget."),
		Seed:          r.Gauge("fubar_tenant_seed", "This tenant's instance seed."),
		OldestRequest: r.Gauge("fubar_tenant_oldest_request_seconds", "Age of this tenant's oldest request in flight; 0 when none is."),
	}
}
