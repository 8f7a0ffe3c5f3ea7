// Package scenario replays a timeline of demand and topology events
// through repeated warm-started re-optimization — the "periodically
// adjusts routing as demand and topology change" operating mode of the
// paper's offline controller, made into a first-class experiment.
//
// A Scenario is a start instance (topology + traffic matrix) plus an
// ordered timeline of events: diurnal demand scaling, per-aggregate
// demand churn, aggregate arrival and departure, link failure and
// recovery, capacity changes. Time is discrete: epoch e applies the
// events scheduled at e, materializes the epoch's topology and matrix,
// and re-optimizes via the core optimizer warm-started from the previous
// epoch's installed bundles (repaired by core.RepairWarmStart so a
// topology event never invalidates the warm start). Each epoch records
// an EpochResult: the utility of the stale allocation before
// re-optimizing, the re-optimized utility, optimizer effort, and the
// routing churn a controller would have to push.
//
// All randomness inside a replay derives from a per-epoch RNG seeded by
// mixing the scenario seed with the epoch index, so a scenario replays
// bit-identically for a given seed at any Options.Core.Workers count
// (wall-clock fields aside).
package scenario

import (
	"fmt"
	"iter"
	"log/slog"
	"math"
	"reflect"
	"strings"
	"time"

	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/graph"
	"fubar/internal/topology"
)

// EventKind enumerates the timeline event types.
type EventKind uint8

// Event kinds.
const (
	// DemandScale sets the global demand factor: every aggregate's flow
	// count becomes round(base * Factor * churn multiplier). The factor
	// is absolute against the base matrix, not cumulative, so a diurnal
	// curve cannot drift.
	DemandScale EventKind = iota
	// DemandChurn redraws per-aggregate demand multipliers: each active
	// aggregate is selected with probability Fraction and has its
	// multiplier scaled by a lognormal step of sigma Factor.
	DemandChurn
	// AggregateArrive adds Count new aggregates with random endpoints
	// and a class drawn from the arrival GenConfig.
	AggregateArrive
	// AggregateDepart removes Count random active aggregates (at least
	// one aggregate always remains).
	AggregateDepart
	// LinkFail takes a physical link down (capacity zero both
	// directions, link forbidden to new paths). Link < 0 picks a random
	// live link whose loss keeps the topology connected.
	LinkFail
	// LinkRecover restores a failed physical link. Link < 0 recovers
	// the longest-failed one.
	LinkRecover
	// CapacityScale multiplies a physical link's capacity by Factor
	// (cumulative). Link < 0 scales every link.
	CapacityScale
	// SRLGFail takes down every link of a shared-risk group declared on
	// the topology (topology.SRLGs) — a correlated failure: one conduit
	// cut, many links gone. Group names the group; empty picks a random
	// declared group with at least one live member.
	SRLGFail
	// SRLGRecover restores a shared-risk group's links. Group names the
	// group; empty picks a random declared group with a downed member.
	SRLGRecover
	// MaintenanceStart drains a physical link for a maintenance window:
	// the link leaves service like a failure, but is tracked separately
	// (planned, drained via make-before-break rather than black-holed).
	// Link < 0 picks a random live link whose loss keeps the topology
	// connected.
	MaintenanceStart
	// MaintenanceEnd returns a drained link to service. Link < 0 ends
	// the longest-running maintenance window.
	MaintenanceEnd
	// ControllerFail kills a controller replica (Event.Replica selects
	// the seat) in a closed-loop replay: its switches re-home onto
	// surviving replicas, which resync their rule tables from the
	// shared handoff state. Outside a closed loop — or when the seat
	// does not exist, or is the last one live — the event is a recorded
	// no-op, so the same scenario replays cleanly against any control
	// plane (including a single-controller one, for comparison).
	ControllerFail
	// ControllerRecover re-seats a previously failed controller replica
	// (Event.Replica). A no-op when the seat is live or absent.
	ControllerRecover
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case DemandScale:
		return "demand-scale"
	case DemandChurn:
		return "demand-churn"
	case AggregateArrive:
		return "arrive"
	case AggregateDepart:
		return "depart"
	case LinkFail:
		return "link-fail"
	case LinkRecover:
		return "link-recover"
	case CapacityScale:
		return "capacity-scale"
	case SRLGFail:
		return "srlg-fail"
	case SRLGRecover:
		return "srlg-recover"
	case MaintenanceStart:
		return "maintenance-start"
	case MaintenanceEnd:
		return "maintenance-end"
	case ControllerFail:
		return "controller-fail"
	case ControllerRecover:
		return "controller-recover"
	default:
		return "unknown"
	}
}

// Event is one timeline entry, applied at the start of its epoch.
// Events sharing an epoch apply in slice order.
type Event struct {
	// Epoch the event fires at, in [0, Scenario.Epochs).
	Epoch int
	// Kind selects the event type.
	Kind EventKind
	// Link targets a physical link for LinkFail / LinkRecover /
	// CapacityScale; -1 lets the engine pick (see the kind docs).
	Link topology.LinkID
	// Factor parameterizes DemandScale (absolute demand factor),
	// DemandChurn (lognormal sigma) and CapacityScale (multiplier).
	Factor float64
	// Fraction is the share of aggregates a DemandChurn redraws.
	Fraction float64
	// Count is how many aggregates an AggregateArrive / AggregateDepart
	// adds or removes.
	Count int
	// Group names the shared-risk group an SRLGFail / SRLGRecover
	// targets; empty lets the engine pick (see the kind docs). Groups
	// are declared on the topology (topology.WithSRLGs) and validated at
	// run time.
	Group string
	// Replica is the controller seat a ControllerFail /
	// ControllerRecover targets. Seats outside the control plane's
	// replica set make the event a no-op (see the kind docs).
	Replica int
}

// Scenario is a named, seeded timeline over a start instance.
type Scenario struct {
	// Name labels reports and bench records.
	Name string
	// Seed drives every random choice of the replay via per-epoch RNGs.
	Seed int64
	// Epochs is the number of re-optimization rounds (at least 1).
	Epochs int
	// Events is the timeline; entries apply at the start of their epoch.
	Events []Event
}

// Validate checks the timeline against the epoch count.
func (s Scenario) Validate() error {
	if s.Epochs <= 0 {
		return fmt.Errorf("scenario: %q has %d epochs", s.Name, s.Epochs)
	}
	for i, e := range s.Events {
		if e.Epoch < 0 || e.Epoch >= s.Epochs {
			return fmt.Errorf("scenario: event %d epoch %d outside [0,%d)", i, e.Epoch, s.Epochs)
		}
		switch e.Kind {
		case DemandScale, CapacityScale:
			if e.Factor <= 0 {
				return fmt.Errorf("scenario: event %d (%s) needs a positive Factor, got %v", i, e.Kind, e.Factor)
			}
		case DemandChurn:
			if e.Factor <= 0 || e.Fraction <= 0 || e.Fraction > 1 {
				return fmt.Errorf("scenario: event %d (%s) needs Factor > 0 and Fraction in (0,1], got %v/%v",
					i, e.Kind, e.Factor, e.Fraction)
			}
		case AggregateArrive, AggregateDepart:
			if e.Count <= 0 {
				return fmt.Errorf("scenario: event %d (%s) needs a positive Count, got %d", i, e.Kind, e.Count)
			}
		case LinkFail, LinkRecover, MaintenanceStart, MaintenanceEnd:
			// Link is validated against the topology at run time.
		case SRLGFail, SRLGRecover:
			// Group is validated against the topology at run time.
		case ControllerFail, ControllerRecover:
			if e.Replica < 0 {
				return fmt.Errorf("scenario: event %d (%s) needs a non-negative Replica, got %d", i, e.Kind, e.Replica)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %d", i, uint8(e.Kind))
		}
	}
	return nil
}

// Options tunes a replay, open loop or closed, and the control plane a
// closed one runs over. The zero value is usable. Arriving aggregates
// always draw from traffic.DefaultGenConfig, and the closed loop's
// measurement cadence is closedloop.go's measureEpochs and
// sdnsim.MeasurementInterval: constants, not fields.
type Options struct {
	// Core configures each epoch's optimizer run. Policy.ForbiddenLinks
	// is managed by the engine (failed links): anything set there is
	// merged.
	Core core.Options
	// ColdStart disables warm starting: every epoch optimizes from the
	// shortest-path placement. The stale-allocation utility is still
	// recorded, so cold and warm replays stay comparable, and a closed
	// loop still pushes the repair (the environment always needs a valid
	// routing).
	ColdStart bool
	// Budget bounds each epoch's re-optimization wall time — the paper's
	// "re-optimize within the measurement interval" — as a per-epoch
	// context.WithTimeout under the replay's context; a truncated epoch
	// publishes its best-so-far solution and records DeadlineMiss (the
	// cost of the early publish is Utility vs StaleUtility, and on the
	// simulated network TrueUtility vs StaleTrueUtility). 0 means
	// unbounded. A real budget makes replays machine-dependent (see
	// core.Options.Workers); leave it 0 when checking determinism.
	Budget time.Duration

	// The fields below are read by NewControlPlane and by replays handed
	// the control plane it built; an open-loop replay ignores them.

	// Replicas is the controller replica count (default 1). Switch
	// ownership shards across replicas by rendezvous hashing, an install
	// reaches every replica's switches in one round, and ControllerFail events need at least 2 to
	// have any effect.
	Replicas int
	// RuleLease is the rule hard-timeout advertised to the switch
	// agents; an agent orphaned past it applies LeasePolicy to its
	// table. 0 disables the lease.
	RuleLease time.Duration
	// LeasePolicy selects fail-static (keep the stale table; default) or
	// fail-closed (wipe it) at lease expiry.
	LeasePolicy ctrlplane.FailPolicy
	// Logger receives structured progress records (one per closed-loop
	// epoch, with epoch/utility/wiremods fields) and the control plane's
	// diagnostics; nil discards them.
	Logger *slog.Logger
}

// withDefaults fills the control-plane defaults.
func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// EpochResult is one epoch of a replay. Two replays of the same scenario
// and seed produce identical results at any worker count, except for the
// wall-clock Elapsed field.
type EpochResult struct {
	// Epoch indexes the round, 0-based.
	Epoch int `json:"epoch"`
	// Events describes the timeline entries applied this epoch.
	Events []string `json:"events,omitempty"`
	// Aggregates and Flows describe the epoch's traffic matrix.
	Aggregates int `json:"aggregates"`
	Flows      int `json:"flows"`
	// DemandKbps is the matrix's total backbone demand.
	DemandKbps float64 `json:"demand_kbps"`
	// FailedLinks counts physical links currently down from unplanned
	// failures (LinkFail and SRLGFail events).
	FailedLinks int `json:"failed_links"`
	// MaintenanceLinks counts physical links currently drained for
	// maintenance windows (tracked separately from failures).
	MaintenanceLinks int `json:"maintenance_links,omitempty"`
	// WarmStart reports whether this epoch re-optimized from the
	// previous installed allocation (false for epoch 0 and cold runs).
	WarmStart bool `json:"warm_start"`
	// StaleUtility is the utility of the allocation in the network
	// before this epoch re-optimized: the previous installed bundles,
	// repaired onto the epoch's instance. For epoch 0 it is the
	// shortest-path placement's utility.
	StaleUtility float64 `json:"stale_utility"`
	// Utility is the re-optimized network utility.
	Utility float64 `json:"utility"`
	// Steps and Escalations are the optimizer's committed moves and
	// escalation count; Stop is its termination reason.
	Steps       int             `json:"steps"`
	Escalations int             `json:"escalations"`
	Stop        core.StopReason `json:"-"`
	// StopReason is Stop rendered for JSON records.
	StopReason string `json:"stop"`
	// Elapsed is the epoch's optimization wall time (not deterministic).
	Elapsed time.Duration `json:"elapsed_ns"`
	// RepairDropped / RepairMovedFlows summarize the warm-start repair:
	// bundles dropped (dead paths, departed aggregates) and flows the
	// repair re-placed before the optimizer ran.
	RepairDropped    int `json:"repair_dropped"`
	RepairMovedFlows int `json:"repair_moved_flows"`
	// Routing churn against the previously installed allocation, over
	// (aggregate, path) pairs keyed by the scenario's stable aggregate
	// identity:
	//
	//   PathsChanged — pairs present in exactly one of the two
	//   allocations (paths brought up plus paths torn down);
	//   FlowsMoved   — sum of positive per-pair flow increases: flows
	//   now on a path they were not on before;
	//   FlowMods     — pairs whose flow count changed at all: the
	//   flow-table add/modify/delete operations a controller would push.
	//
	// Epoch 0 reports the full initial installation.
	//
	// In a plain replay these are *estimates* derived by diffing bundle
	// lists; a closed-loop replay additionally counts the
	// FlowMod messages actually exchanged with switches in WireFlowMods,
	// which can differ: the wire protocol replaces whole per-switch
	// tables, so one message covers every changed pair at that ingress,
	// and unchanged switches receive nothing.
	PathsChanged int `json:"paths_changed"`
	FlowsMoved   int `json:"flows_moved"`
	FlowMods     int `json:"flow_mods"`

	// Closed-loop fields, populated only with a control plane in the loop (all zero in
	// plain replays):
	//
	//   WireFlowMods — FlowMod messages actually written to switch
	//   connections this epoch (differential installs: only switches
	//   whose rule table changed receive one), the repair push plus the
	//   re-optimization push;
	//   WireRules — rules carried by those messages;
	//   InstallAcks — FlowModAck replies received, which the simulated
	//   switches ack only after applying the table (== WireFlowMods
	//   when no switch failed);
	//   DeadlineMiss — the epoch's optimization ran out of its
	//   wall-clock budget and published the best-so-far solution;
	//   TrueUtility — ground-truth utility the installed allocation
	//   achieved on the simulated network after the install;
	//   StaleTrueUtility — ground truth under the stale (repaired)
	//   routing during the measurement phase;
	//   MBBHeadroom — minimum per-link headroom fraction while old and
	//   new reservations transiently coexist during make-before-break
	//   (negative: the transition would over-reserve some link);
	//   MBBTeardowns / MBBSetups — old paths torn down after traffic
	//   switches / new paths signaled;
	//   Failovers — controller replicas killed by this epoch's events
	//   (ControllerFail events that actually took a replica down);
	//   ResyncFlowMods — rule tables re-pushed to orphaned switches by
	//   surviving replicas during failover handoff, verified by ack and
	//   reconciled against the fabric ledger before the epoch's own
	//   installs.
	WireFlowMods     int     `json:"wire_flow_mods,omitempty"`
	WireRules        int     `json:"wire_rules,omitempty"`
	InstallAcks      int     `json:"install_acks,omitempty"`
	Failovers        int     `json:"failovers,omitempty"`
	ResyncFlowMods   int     `json:"resync_flow_mods,omitempty"`
	DeadlineMiss     bool    `json:"deadline_miss,omitempty"`
	TrueUtility      float64 `json:"true_utility,omitempty"`
	StaleTrueUtility float64 `json:"stale_true_utility,omitempty"`
	MBBHeadroom      float64 `json:"mbb_headroom,omitempty"`
	MBBTeardowns     int     `json:"mbb_teardowns,omitempty"`
	MBBSetups        int     `json:"mbb_setups,omitempty"`

	// Installs is the epoch's wire install sequence (closed-loop replays
	// only) — what streaming consumers see per epoch. Collected results
	// fold these into Result.Installs, which keeps the JSON record's
	// shape, so the per-epoch copy is excluded from marshaling.
	Installs []InstallRecord `json:"-"`
}

// Check returns nil when the epoch holds what every replayed epoch holds by
// construction, or an error naming the first rule it breaks: its matrix has
// an aggregate and a flow, and its utilities are finite and in (0, 1]. An
// epoch that carries Installs ran closed loop, and also balances its wire
// ledger — every install's FlowMods acked, WireFlowMods equal to
// InstallAcks — and delivered a ground-truth utility in (0, 1].
func (e *EpochResult) Check() error {
	if e.Aggregates < 1 || e.Flows < 1 {
		return fmt.Errorf("epoch %d: %d aggregates, %d flows", e.Epoch, e.Aggregates, e.Flows)
	}
	for _, in := range e.Installs {
		if in.FlowMods != in.Acks {
			return fmt.Errorf("epoch %d: %s install generation %d: %d FlowMods, %d acks", e.Epoch, in.Phase, in.Generation, in.FlowMods, in.Acks)
		}
	}
	if e.WireFlowMods != e.InstallAcks {
		return fmt.Errorf("epoch %d: %d wire FlowMods, %d install acks", e.Epoch, e.WireFlowMods, e.InstallAcks)
	}
	names := [...]string{"utility", "stale utility", "true utility", "stale true utility"}
	for i, u := range [...]float64{e.Utility, e.StaleUtility, e.TrueUtility, e.StaleTrueUtility} {
		if i == 2 && len(e.Installs) == 0 {
			break // no ground truth outside a closed loop
		}
		if !(u > 0 && u <= 1+1e-9) { // NaN fails too
			return fmt.Errorf("epoch %d: %s %v outside (0, 1]", e.Epoch, names[i], u)
		}
	}
	return nil
}

// Result is a completed replay.
type Result struct {
	// Name and Seed identify the scenario run.
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Topology summarizes the base topology.
	Topology string `json:"topology"`
	// ColdStart records whether warm starting was disabled.
	ColdStart bool `json:"cold_start"`
	// ClosedLoop records whether the replay drove the control plane end
	// to end rather than the bare optimizer.
	ClosedLoop bool `json:"closed_loop,omitempty"`
	// Epochs holds one entry per epoch in order.
	Epochs []EpochResult `json:"epochs"`
	// Installs is the closed-loop wire install sequence in order: every
	// allocation push the controller performed, with its counted FlowMod
	// messages. Empty for plain replays. Part of the determinism
	// contract: same seed ⇒ identical sequence at any worker count.
	Installs []InstallRecord `json:"installs,omitempty"`
}

// InstallRecord is one allocation push of a closed-loop replay.
type InstallRecord struct {
	// Epoch is the scenario epoch the push belongs to.
	Epoch int `json:"epoch"`
	// Generation is the wire protocol's install token.
	Generation uint64 `json:"generation"`
	// Phase is "repair" (the immediate post-event push restoring a valid
	// routing) or "reopt" (the deadline-budgeted re-optimization push).
	Phase string `json:"phase"`
	// FlowMods is the number of FlowMod messages written (switches whose
	// table changed); Rules the rules they carried; Acks the
	// FlowModAck replies received.
	FlowMods int `json:"flow_mods"`
	Rules    int `json:"rules"`
	Acks     int `json:"acks"`
}

// Run drains a replay stream (Stream of sc over topo under opts, with
// a control plane in the loop or not) into its Result, folding per-epoch
// install records into the result-level sequence log. A stream that ends
// in an error — a cancelled ctx included — surfaces it and discards the
// partial table; range over the stream to keep it.
func Run(topo *topology.Topology, sc Scenario, opts Options, closedLoop bool, seq iter.Seq2[EpochResult, error]) (*Result, error) {
	res := &Result{Name: sc.Name, Seed: sc.Seed, ColdStart: opts.ColdStart, ClosedLoop: closedLoop}
	if topo != nil {
		res.Topology = topo.Summary()
	}
	for er, err := range seq {
		if err != nil {
			return nil, err
		}
		res.Epochs = append(res.Epochs, er)
		res.Installs = append(res.Installs, er.Installs...)
	}
	return res, nil
}

// TotalSteps sums committed optimizer moves over all epochs.
func (r *Result) TotalSteps() int {
	n := 0
	for _, e := range r.Epochs {
		n += e.Steps
	}
	return n
}

// TotalFlowMods sums the *estimated* controller-visible flow-table
// operations over all epochs (including the epoch-0 installation) —
// the per-(aggregate, path) diff of consecutive installed allocations.
// For closed-loop replays, TotalWireFlowMods counts the FlowMod
// messages actually exchanged with switches, which is the real install
// sequence and generally smaller (whole-table messages, unchanged
// switches skipped).
func (r *Result) TotalFlowMods() int {
	n := 0
	for _, e := range r.Epochs {
		n += e.FlowMods
	}
	return n
}

// TotalWireFlowMods sums the counted wire FlowMod messages over all
// epochs of a closed-loop replay (zero for plain replays).
func (r *Result) TotalWireFlowMods() int {
	n := 0
	for _, e := range r.Epochs {
		n += e.WireFlowMods
	}
	return n
}

// DeadlineMissRate is the fraction of epochs whose optimization ran out
// of its wall-clock budget (closed-loop replays with a budget only).
func (r *Result) DeadlineMissRate() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	miss := 0
	for _, e := range r.Epochs {
		if e.DeadlineMiss {
			miss++
		}
	}
	return float64(miss) / float64(len(r.Epochs))
}

// MinMBBHeadroom is the tightest per-epoch make-before-break headroom
// of a closed-loop replay: the smallest margin any link had while old
// and new reservations transiently coexisted (negative means some
// transition needed more than link capacity; meaningless for plain
// replays).
func (r *Result) MinMBBHeadroom() float64 {
	m := math.Inf(1)
	for _, e := range r.Epochs {
		if e.MBBHeadroom < m {
			m = e.MBBHeadroom
		}
	}
	if math.IsInf(m, 1) {
		return 0
	}
	return m
}

// MeanUtility averages the re-optimized utility over epochs.
func (r *Result) MeanUtility() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	var s float64
	for _, e := range r.Epochs {
		s += e.Utility
	}
	return s / float64(len(r.Epochs))
}

// MinUtility is the worst re-optimized epoch utility.
func (r *Result) MinUtility() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	m := r.Epochs[0].Utility
	for _, e := range r.Epochs[1:] {
		if e.Utility < m {
			m = e.Utility
		}
	}
	return m
}

// Equivalent returns nil when two replays produced the same epoch table
// and install sequence, ignoring wall-clock fields — the determinism
// contract checked by tests and the bench harness — or an error naming the
// first difference: a header field, an epoch's field (Epochs[3].Utility),
// or an install (Installs[5].Acks).
func (r *Result) Equivalent(o *Result) error {
	if d := firstDiff(reflect.ValueOf(*r), reflect.ValueOf(*o)); d != "" {
		return fmt.Errorf("replays differ at %s", strings.TrimPrefix(d, "."))
	}
	return nil
}

// firstDiff returns the path (".Field", "[i]") to the first place, depth
// first, in which two values of one type differ — wall-clock Elapsed and
// the Topology summary aside — followed by both values, or "".
func firstDiff(a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if name == "Elapsed" || name == "Topology" {
				continue
			}
			if d := firstDiff(a.Field(i), b.Field(i)); d != "" {
				return "." + name + d
			}
		}
		return ""
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf(": %d vs %d entries", a.Len(), b.Len())
		}
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf(": nil %v vs nil %v", a.IsNil(), b.IsNil())
		}
		for i := range a.Len() {
			if d := firstDiff(a.Index(i), b.Index(i)); d != "" {
				return fmt.Sprintf("[%d]%s", i, d)
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a.Interface(), b.Interface()) {
		return fmt.Sprintf(": %v vs %v", a, b)
	}
	return ""
}

// keyedBundle is one installed (aggregate, path) entry carried between
// epochs under the scenario's stable aggregate key, which survives
// matrix re-indexing as aggregates arrive and depart.
type keyedBundle struct {
	key   int64
	flows int
	edges []graph.EdgeID
}

// epochSeed mixes the scenario seed with the epoch index (splitmix64
// finalizer) so every epoch owns an independent deterministic stream.
func epochSeed(seed int64, epoch int) int64 {
	z := uint64(seed) + uint64(epoch+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
