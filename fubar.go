package fubar

import (
	"io"
	"net/http"

	"fubar/internal/anneal"
	"fubar/internal/baseline"
	"fubar/internal/classify"
	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/dsim"
	"fubar/internal/experiment"
	"fubar/internal/flowmodel"
	"fubar/internal/graph"
	"fubar/internal/measure"
	"fubar/internal/metrics"
	"fubar/internal/mpls"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// Quantities.
type (
	// Bandwidth is a data rate in kilobits per second.
	Bandwidth = unit.Bandwidth
	// Delay is a one-way propagation delay in milliseconds.
	Delay = unit.Delay
)

// Unit constants.
const (
	Kbps        = unit.Kbps
	Mbps        = unit.Mbps
	Gbps        = unit.Gbps
	Millisecond = unit.Millisecond
	Second      = unit.Second
)

// ParseBandwidth parses "100Mbps", "50kbps", "1.5Gbps" or bare kbps.
func ParseBandwidth(s string) (Bandwidth, error) { return unit.ParseBandwidth(s) }

// ParseDelay parses "5ms", "1.2s" or bare milliseconds.
func ParseDelay(s string) (Delay, error) { return unit.ParseDelay(s) }

// Topologies.
type (
	// Topology is a POP-level network: named nodes joined by
	// bidirectional capacity+delay links.
	Topology = topology.Topology
	// NodeID identifies a topology node.
	NodeID = topology.NodeID
	// LinkID identifies a directed link.
	LinkID = topology.LinkID
	// Link is one directed link.
	Link = topology.Link
	// SRLG is a shared-risk link group: links that fail together.
	// Declare groups with Topology.WithSRLGs; scenario SRLG events and
	// the closed-loop replay consume them.
	SRLG = topology.SRLG
	// Path is an edge sequence through the topology's graph.
	Path = graph.Path
)

// HurricaneElectric builds the 31-POP / 56-link substitute for Hurricane
// Electric's 2014 core (§3) with a uniform link capacity.
func HurricaneElectric(capacity Bandwidth) (*Topology, error) {
	return topology.HurricaneElectric(capacity)
}

// RingTopology generates an n-node ring with extra random chords.
func RingTopology(n, chords int, capacity Bandwidth, seed int64) (*Topology, error) {
	return topology.Ring(n, chords, capacity, seed)
}

// GridTopology generates a w x h Manhattan mesh.
func GridTopology(w, h int, capacity Bandwidth) (*Topology, error) {
	return topology.Grid(w, h, capacity)
}

// WaxmanTopology generates a geographic random topology.
func WaxmanTopology(n int, alpha, beta float64, capacity Bandwidth, maxDelay Delay, seed int64) (*Topology, error) {
	return topology.Waxman(n, alpha, beta, capacity, maxDelay, seed)
}

// DumbbellTopology generates the classic single-bottleneck topology.
func DumbbellTopology(leaf int, capacity, bottleneck Bandwidth) (*Topology, error) {
	return topology.Dumbbell(leaf, capacity, bottleneck)
}

// ParseTopology reads the text topology format.
func ParseTopology(r io.Reader) (*Topology, error) { return topology.Parse(r) }

// WriteTopology serializes a topology in the text format.
func WriteTopology(w io.Writer, t *Topology) error { return topology.Write(w, t) }

// Traffic.
type (
	// Matrix is a traffic matrix bound to a topology.
	Matrix = traffic.Matrix
	// Aggregate is a set of flows sharing source, destination and class.
	Aggregate = traffic.Aggregate
	// AggregateID indexes an aggregate within its matrix.
	AggregateID = traffic.AggregateID
	// GenConfig parameterizes random matrix generation (§3).
	GenConfig = traffic.GenConfig
)

// NewMatrix builds a matrix from explicit aggregates.
func NewMatrix(topo *Topology, aggs []Aggregate) (*Matrix, error) {
	return traffic.NewMatrix(topo, aggs)
}

// DefaultGenConfig mirrors the paper's §3 workload for a seed.
func DefaultGenConfig(seed int64) GenConfig { return traffic.DefaultGenConfig(seed) }

// GenerateTraffic draws a random all-pairs matrix.
func GenerateTraffic(topo *Topology, cfg GenConfig) (*Matrix, error) {
	return traffic.Generate(topo, cfg)
}

// Utility.
type (
	// UtilityFunction maps per-flow bandwidth and path delay to [0,1].
	UtilityFunction = utility.Function
	// Curve is a piecewise-linear utility component.
	Curve = utility.Curve
	// CurvePoint is one vertex of a Curve.
	CurvePoint = utility.Point
	// Class labels a traffic class.
	Class = utility.Class
)

// Traffic classes (§3).
const (
	ClassRealTime  = utility.ClassRealTime
	ClassBulk      = utility.ClassBulk
	ClassLargeFile = utility.ClassLargeFile
)

// Model.
type (
	// Model is the §2.3 TCP-like traffic model (a Session builds and
	// keeps one: Session.Model). It is immutable and holds no scratch:
	// evaluate it through a ModelEval arena from Model.NewEval.
	Model = flowmodel.Model
	// ModelEval is a reusable evaluation arena; one goroutine per arena
	// may Evaluate concurrently over a shared Model.
	ModelEval = flowmodel.Eval
	// Bundle is a group of one aggregate's flows on one path.
	Bundle = flowmodel.Bundle
	// ModelResult is one model evaluation.
	ModelResult = flowmodel.Result
)

// Optimizer.
type (
	// Options tunes the optimizer.
	Options = core.Options
	// Solution is an optimization outcome.
	Solution = core.Solution
	// Snapshot is a progress report during optimization.
	Snapshot = core.Snapshot
	// StopReason explains optimizer termination.
	StopReason = core.StopReason
	// Policy restricts acceptable paths (§2.4 "policy compliant").
	Policy = pathgen.Policy
	// AltMode restricts the alternative-path trio (ablations).
	AltMode = core.AltMode
	// DeltaStats counts incremental-evaluation activity
	// (Solution.Delta).
	DeltaStats = flowmodel.DeltaStats
	// ModelBase is a captured base evaluation for ModelEval.EvaluateDelta.
	ModelBase = flowmodel.Base
	// BaseStats counts how the optimizer obtained each step's delta base
	// (Solution.Base) — the persistent-base bookkeeping.
	BaseStats = core.BaseStats
	// SolutionSummary is the JSON shape a Solution marshals to — the
	// headline numbers without the bundle list (Solution.Summary).
	SolutionSummary = core.SolutionSummary
)

// Stop reasons.
const (
	StopNoCongestion = core.StopNoCongestion
	StopLocalOptimum = core.StopLocalOptimum
	StopMaxSteps     = core.StopMaxSteps
	StopDeadline     = core.StopDeadline
	// StopCancelled reports a cancelled context: the partial solution is
	// returned, deterministic up to the cancellation point.
	StopCancelled = core.StopCancelled
)

// Baselines.
type (
	// BaselineOutcome is a baseline allocation plus its evaluation.
	BaselineOutcome = baseline.Outcome
	// UpperBoundResult is the §3 isolation bound.
	UpperBoundResult = baseline.UpperBoundResult
)

// ShortestPathRouting evaluates the paper's shortest-path reference.
func ShortestPathRouting(model *Model, policy Policy) (*BaselineOutcome, error) {
	return baseline.ShortestPath(model, policy)
}

// UpperBound computes the §3 isolation upper bound.
func UpperBound(topo *Topology, mat *Matrix, policy Policy) (*UpperBoundResult, error) {
	return baseline.UpperBound(topo, mat, policy)
}

// Experiments.
type (
	// ExperimentConfig describes one §3 evaluation run.
	ExperimentConfig = experiment.Config
)

// Provisioned returns Fig 3's configuration (100 Mbps links).
func Provisioned(seed int64) ExperimentConfig { return experiment.Provisioned(seed) }

// Underprovisioned returns Fig 4's configuration (75 Mbps links).
func Underprovisioned(seed int64) ExperimentConfig { return experiment.Underprovisioned(seed) }

// Prioritized returns Fig 5's configuration (large flows weighted up).
func Prioritized(seed int64) ExperimentConfig { return experiment.Prioritized(seed) }

// RelaxedDelay returns Fig 6's configuration (small-flow delay doubled).
func RelaxedDelay(seed int64) ExperimentConfig { return experiment.RelaxedDelay(seed) }

// ExperimentInstance materializes a configuration's topology and traffic
// matrix without optimizing — e.g. as epoch 0 of a scenario replay.
func ExperimentInstance(cfg ExperimentConfig) (*Topology, *Matrix, error) {
	return experiment.Instance(cfg)
}

// Scenario replay (time-varying traffic and topology through repeated
// warm-started re-optimization).
type (
	// Scenario is a seeded timeline of demand/topology events replayed
	// over a start instance.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timeline entry.
	ScenarioEvent = scenario.Event
	// ScenarioEventKind enumerates the event types.
	ScenarioEventKind = scenario.EventKind
	// ScenarioResult is a completed replay (one EpochRecord per epoch).
	ScenarioResult = scenario.Result
	// EpochRecord is one epoch of a replay: stale vs re-optimized
	// utility, optimizer effort and routing churn.
	EpochRecord = scenario.EpochResult
	// InstallRecord is one wire allocation push of a closed-loop replay
	// (EpochRecord.Installs, ScenarioResult.Installs).
	InstallRecord = scenario.InstallRecord
)

// DiurnalScenario traces a day of demand: a sinusoid between
// (1-amplitude) and (1+amplitude) of base demand with per-aggregate
// churn layered on each epoch.
func DiurnalScenario(seed int64, epochs int, amplitude, churn float64) Scenario {
	return scenario.Diurnal(seed, epochs, amplitude, churn)
}

// FailureStormScenario fails random links one per epoch, rides the
// degraded plateau, then recovers them oldest-first.
func FailureStormScenario(seed int64, epochs, failures int) Scenario {
	return scenario.FailureStorm(seed, epochs, failures)
}

// CrisisScenario is the worst-day composite: a flash crowd breaks out
// while a shared-risk group is down and a maintenance window is
// draining yet another link.
func CrisisScenario(seed int64, epochs int, spike float64, arrivals int) Scenario {
	return scenario.Crisis(seed, epochs, spike, arrivals)
}

// SoakScenario builds a sparse long-horizon timeline sized for soak
// replays: a demand step plus mild churn every period epochs and an
// occasional link failure cycle, O(epochs/period) events total, so a
// million-epoch soak's timeline stays small while the epochs between
// events replay as cheap quiescent rounds.
func SoakScenario(seed int64, epochs, period int) Scenario {
	return scenario.Soak(seed, epochs, period)
}

// Downsampled replay trajectories (the soak layer's fixed-memory view
// of arbitrarily long replays).
type (
	// Trajectory is one scenario family's downsampled replay time
	// series: convergence and churn folded into a fixed point budget.
	Trajectory = scenario.Trajectory
	// TrajectoryPoint is one downsampled bucket — means for utilities,
	// sums for effort and churn counters.
	TrajectoryPoint = scenario.TrajectoryPoint
)

// ScenarioByName resolves a canned scenario (see ScenarioNames) with
// its default shape for the epoch count; an unknown name's error
// enumerates the valid ones.
func ScenarioByName(name string, seed int64, epochs int) (Scenario, error) {
	return scenario.ByName(name, seed, epochs)
}

// ScenarioNames lists the canned scenario names ScenarioByName
// resolves, in a stable order suitable for help text.
func ScenarioNames() []string { return scenario.Names() }

// ScalePreset is one reproducible large-instance preset (seeded Waxman
// topology plus a sparse random traffic matrix sized by aggregate
// count), used to benchmark the optimizer 10-100x beyond the HE-31
// evaluation instance.
type ScalePreset = scenario.ScalePreset

// ScalePresetNames lists the preset names (scale-xs .. scale-l) in
// registry order, for help text.
func ScalePresetNames() []string { return scenario.ScalePresetNames() }

// ScalePresetByName resolves a large-instance preset by its CLI name;
// an unknown name's error enumerates the valid ones.
func ScalePresetByName(name string) (ScalePreset, error) { return scenario.ScalePresetByName(name) }

// ScaleInstance generates a preset's topology and traffic matrix for a
// seed — deterministic, so benchmark instances are reproducible from the
// preset name and seed alone.
func ScaleInstance(name string, seed int64) (*Topology, *Matrix, error) {
	return scenario.ScaleInstance(name, seed)
}

// SparseTraffic draws a sparse random traffic matrix: aggregates over
// random non-self node pairs instead of the full all-pairs cross
// product, sizing the instance by aggregate count.
func SparseTraffic(topo *Topology, cfg GenConfig, aggregates int) (*Matrix, error) {
	return traffic.Sparse(topo, cfg, aggregates)
}

// SDN measurement substrate.
type (
	// Sim is the simulated SDN network (§2.1 substitute).
	Sim = sdnsim.Sim
	// SimConfig tunes the simulator.
	SimConfig = sdnsim.Config
	// EpochStats is one epoch of switch counters. A Sim's RunEpoch
	// returns its own, valid until its next RunEpoch.
	EpochStats = sdnsim.EpochStats
	// Estimator reconstructs the traffic matrix from counters (§2.2).
	Estimator = measure.Estimator
	// AggregateKey identifies an aggregate to the estimator.
	AggregateKey = measure.AggregateKey
)

// NewSim builds a simulated network over a ground-truth matrix.
func NewSim(topo *Topology, truth *Matrix, cfg SimConfig) (*Sim, error) {
	return sdnsim.New(topo, truth, cfg)
}

// NewEstimator builds a traffic-matrix estimator for known aggregates.
func NewEstimator(keys []AggregateKey) *Estimator { return measure.NewEstimator(keys) }

// EstimatorKeys extracts estimator keys from a matrix.
func EstimatorKeys(mat *Matrix) []AggregateKey { return measure.KeysFromMatrix(mat) }

// Metrics.
type (
	// CDF is an empirical distribution.
	CDF = metrics.CDF
)

// NewCDF builds an empirical CDF from values.
func NewCDF(values []float64) *CDF { return metrics.NewCDF(values) }

// Simulated annealing comparator (§2.5 "Escaping local optima").
type (
	// AnnealOptions tunes the naive simulated-annealing allocator the
	// paper compares its escalation heuristic against.
	AnnealOptions = anneal.Options
	// AnnealSolution is a simulated-annealing outcome.
	AnnealSolution = anneal.Solution
	// AnnealRestartsResult is a parallel best-of-n restarts outcome.
	AnnealRestartsResult = anneal.RestartsResult
)

// Traffic classification (§1 "crude heuristics supplemented by operator
// knowledge").
type (
	// Classifier assigns utility classes to aggregates.
	Classifier = classify.Classifier
	// ClassifierOptions tunes the behavioural classification tier.
	ClassifierOptions = classify.Options
	// ClassifierOverride is one operator-knowledge rule.
	ClassifierOverride = classify.Override
	// FlowFeatures is what the measurement plane observes about an
	// aggregate.
	FlowFeatures = classify.Features
	// ClassDecision is a classification outcome.
	ClassDecision = classify.Decision
)

// NewClassifier builds a classifier with operator overrides.
func NewClassifier(opts ClassifierOptions, overrides ...ClassifierOverride) (*Classifier, error) {
	return classify.New(opts, overrides...)
}

// FlowFeaturesFromRates derives behavioural features from per-epoch rate
// observations.
func FlowFeaturesFromRates(rates []float64, flows int, congestedFraction float64) FlowFeatures {
	return classify.FeaturesFromRates(rates, flows, congestedFraction)
}

// Dynamic simulation (model validation and §3 queue avoidance).
type (
	// DynConfig tunes the time-stepped AIMD fluid simulator.
	DynConfig = dsim.Config
	// DynResult is a completed dynamic simulation.
	DynResult = dsim.Result
	// ModelValidation compares analytic predictions with simulated rates.
	ModelValidation = dsim.Validation
)

// SimulateDynamics runs the AIMD fluid simulation of an allocation.
func SimulateDynamics(topo *Topology, mat *Matrix, bundles []Bundle, cfg DynConfig) (*DynResult, error) {
	return dsim.Simulate(topo, mat, bundles, cfg)
}

// ValidateModel compares a traffic-model evaluation against a dynamic
// simulation of the same allocation.
func ValidateModel(bundles []Bundle, res *ModelResult, sim *DynResult) (*ModelValidation, error) {
	return dsim.Validate(bundles, res, sim)
}

// FailPolicy is what an orphaned switch agent of the closed-loop control
// plane (§5 "in conjunction with an online controller") does with its
// installed rule table when the lease expires; see WithRuleLease.
type FailPolicy = ctrlplane.FailPolicy

// Orphaned-agent lease policies.
const (
	// FailStatic keeps forwarding on the stale table (the default).
	FailStatic = ctrlplane.FailStatic
	// FailClosed wipes the table: no forwarding without a controller.
	FailClosed = ctrlplane.FailClosed
)

// MPLS-TE substrate (§5 "SDN or MPLS networks").
type (
	// LSPDB is an MPLS-TE head-end database with reservations,
	// priorities and preemption.
	LSPDB = mpls.LSPDB
	// LSP is one reserved label-switched path.
	LSP = mpls.LSP
	// LSPSyncStats reports what one solution sync did.
	LSPSyncStats = mpls.SyncStats
	// LSPPriority is an RSVP-TE priority level (0 strongest, 7 weakest).
	LSPPriority = mpls.Priority
)

// NewLSPDB builds an empty MPLS-TE database over a topology.
func NewLSPDB(topo *Topology) (*LSPDB, error) { return mpls.NewDB(topo) }

// SyncToMPLS reconciles an LSP database with a FUBAR allocation,
// reserving each bundle's predicted rate and moving existing tunnels
// make-before-break.
func SyncToMPLS(db *LSPDB, mat *Matrix, bundles []Bundle, rates []float64, prefix string, setup, hold LSPPriority) (*LSPSyncStats, error) {
	return mpls.SyncSolution(db, mat, bundles, rates, prefix, setup, hold)
}

// Telemetry: metrics registry, tracing, and live endpoints.
type (
	// Telemetry bundles a metrics registry with a span tracer. Attach
	// one to a Session with WithTelemetry; every layer — optimizer
	// steps, delta evaluation, replay epochs, control-plane installs —
	// accumulates into it.
	Telemetry = telemetry.Telemetry
	// MetricsSnapshot is a point-in-time, JSON-marshalable copy of
	// every counter, gauge and histogram in a telemetry registry.
	MetricsSnapshot = telemetry.Snapshot
	// TraceEvent is one completed telemetry span (step, epoch, …).
	TraceEvent = telemetry.Event
)

// NewTelemetry builds an empty telemetry bundle (registry + tracer).
func NewTelemetry() *Telemetry { return telemetry.New() }

// TelemetryHandler serves t live over HTTP: Prometheus text /metrics,
// Go profiling under /debug/pprof/, and a JSONL span stream at /trace.
// Mount it on any mux or pass it straight to http.Serve.
func TelemetryHandler(t *Telemetry) http.Handler { return telemetry.Handler(t) }

// CheckExposition validates a Prometheus text-format scrape (as served
// by /metrics) — HELP/TYPE ordering, naming, parseable samples —
// returning the first violation. Scrape checks in tests, examples
// and the benchmark use it.
func CheckExposition(body string) error { return telemetry.CheckExposition(body) }
