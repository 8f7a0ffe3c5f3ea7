package scenario

import (
	"context"
	"fmt"
	"iter"
	"log/slog"
	"math/rand"
	"time"

	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/flowmodel"
	"fubar/internal/measure"
	"fubar/internal/mpls"
	"fubar/internal/sdnsim"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// ClosedLoopOptions tunes a closed-loop replay: a scenario driven
// through the full deployment cycle (simulated network, TCP control
// plane, counter-based matrix estimation, deadline-budgeted
// re-optimization, differential wire installs) instead of the bare
// optimizer. The zero value is usable.
type ClosedLoopOptions struct {
	// Core configures each epoch's optimizer run. InitialBundles,
	// Policy.ForbiddenLinks and Deadline are managed by the loop.
	Core core.Options
	// ColdStart disables warm starting the per-epoch re-optimization
	// (the repair push still happens: the environment always needs a
	// valid routing).
	ColdStart bool
	// Arrivals is the class mix AggregateArrive events draw from (see
	// Options.Arrivals).
	Arrivals traffic.GenConfig
	// EpochBudget bounds each epoch's re-optimization wall time — the
	// paper's "re-optimize within the measurement interval" —
	// implemented as a per-epoch context.WithTimeout layered under the
	// replay's context. When the budget truncates a run, the best-so-far
	// solution is published anyway and the epoch records DeadlineMiss;
	// the stale-utility cost of the early publish is visible as Utility
	// vs StaleUtility (and TrueUtility vs StaleTrueUtility on the
	// simulated network). 0 leaves Core.Deadline (if any) in effect. A
	// real budget makes replays machine-dependent (see
	// core.Options.Deadline); leave it 0 when checking determinism.
	EpochBudget time.Duration
	// MeasureEpochs is how many simulator measurement epochs are polled
	// and folded into the traffic-matrix estimate before each
	// re-optimization (default 2).
	MeasureEpochs int
	// SimEpoch is the simulated measurement interval (default 10s;
	// scales byte counters only).
	SimEpoch time.Duration
	// DemandJitter is the simulator's per-epoch true-demand variation,
	// invisible to the controller except through counters (default 0.1;
	// negative disables). Deterministic per seed.
	DemandJitter float64
	// Replicas is the controller replica count of the private control
	// plane StreamClosedLoop builds (default 1). ControllerFail events
	// need at least 2 to have any effect. Ignored by
	// StreamClosedLoopOn, which borrows an existing control plane.
	Replicas int
	// RuleLease is the rule hard-timeout advertised to the switch
	// agents; an agent orphaned past it applies LeasePolicy. 0 disables
	// the lease. Ignored by StreamClosedLoopOn.
	RuleLease time.Duration
	// LeasePolicy is what an orphaned agent does with its table at
	// lease expiry (default ctrlplane.FailStatic). Ignored by
	// StreamClosedLoopOn.
	LeasePolicy ctrlplane.FailPolicy
	// Logger receives structured progress records (one per epoch, with
	// epoch/utility/wiremods fields); nil discards them.
	Logger *slog.Logger
}

func (o ClosedLoopOptions) withDefaults() ClosedLoopOptions {
	if o.MeasureEpochs <= 0 {
		o.MeasureEpochs = 2
	}
	if o.SimEpoch <= 0 {
		o.SimEpoch = 10 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// simSeedSalt decouples the simulator's jitter stream from the event
// RNG stream derived from the same (seed, epoch).
const simSeedSalt = 0x73696d5f657063 // "sim_epc"

// ControlPlane is the persistent half of a closed-loop replay: a
// controller replica set, one fail-safe switch agent per POP over
// loopback TCP, and the fabric adapting the simulated network into
// per-switch datapaths. Switches are hardware, epochs (and whole
// replays) are weather: a long-lived Session keeps one ControlPlane
// across any number of ReplayClosedLoop calls, with switch tables,
// install generations and ack ledgers carrying over exactly as a
// production controller's would. It implements FaultInjector, so
// ControllerFail / ControllerRecover scenario events act on it during a
// replay. Not safe for concurrent replays. Close releases the sockets.
type ControlPlane struct {
	topo   *topology.Topology
	rs     *ctrlplane.ReplicaSet
	fabric *ctrlplane.Fabric
	agents []*ctrlplane.ManagedAgent

	leasePolicy ctrlplane.FailPolicy

	generation uint64
	ackedBase  int // fabric AckedFlowMods watermark

	// Watermarks over the replica set's cumulative HA counters, so
	// settle() can attribute each epoch's unsolicited fabric acks
	// (resyncs, fail-closed wipes) and report per-epoch deltas.
	resyncBase   int64
	failoverBase int64
	retryBase    int64
	expiryBase   int64
	expRuleBase  int64
}

// ControlPlaneConfig tunes NewControlPlaneCfg beyond the classic
// single-controller shape.
type ControlPlaneConfig struct {
	// Replicas is the controller replica count (default 1). Switch
	// ownership shards across replicas by rendezvous hashing; installs
	// fan out and merge.
	Replicas int
	// RuleLease is the rule hard-timeout advertised to agents; an agent
	// orphaned past it applies LeasePolicy to its table. 0 disables.
	RuleLease time.Duration
	// LeasePolicy selects fail-static (keep the stale table; default)
	// or fail-closed (wipe it) at lease expiry.
	LeasePolicy ctrlplane.FailPolicy
}

// AckedFlowMods returns the fabric's cumulative acked-FlowMod ledger —
// the switches' own count of installs they applied and acknowledged,
// which the install path cross-checks every wire push against. The obs
// bench verifies the fubar_ctrlplane_wire_flowmods_total metric equals
// this ledger's growth.
func (cp *ControlPlane) AckedFlowMods() int { return cp.fabric.AckedFlowMods() }

// HAStats snapshots the control plane's cumulative high-availability
// counters: failovers, RPC retries, verified rule-table handoffs.
func (cp *ControlPlane) HAStats() ctrlplane.HAStats { return cp.rs.Stats() }

// ExpiredRules sums the rules caught in agent lease expiries across all
// switches since the control plane started.
func (cp *ControlPlane) ExpiredRules() int64 {
	var n int64
	for _, a := range cp.agents {
		n += a.ExpiredRules()
	}
	return n
}

// expiries sums agent lease-expiry events.
func (cp *ControlPlane) expiries() int64 {
	var n int64
	for _, a := range cp.agents {
		n += a.Expiries()
	}
	return n
}

// NewControlPlane starts a single-replica control plane — the classic
// shape: one controller and one switch agent per topology node over
// loopback TCP. The matrix seeds the placeholder simulator the fabric
// starts against (each replay epoch retargets it); epoch is the
// measurement interval advertised to the agents in the handshake (0
// means the 10s default, matching ClosedLoopOptions.SimEpoch). logger
// may be nil to discard diagnostics.
func NewControlPlane(topo *topology.Topology, mat *traffic.Matrix, epoch time.Duration, logger *slog.Logger) (*ControlPlane, error) {
	return NewControlPlaneCfg(topo, mat, epoch, logger, ControlPlaneConfig{})
}

// NewControlPlaneCfg starts a control plane with cfg.Replicas
// controller replicas and one fail-safe (auto-reconnecting) switch
// agent per topology node. Agents home onto replicas by the set's
// rendezvous dial order, which shards install load and defines failover
// succession. See NewControlPlane for the other parameters.
func NewControlPlaneCfg(topo *topology.Topology, mat *traffic.Matrix, epoch time.Duration, logger *slog.Logger, cfg ControlPlaneConfig) (*ControlPlane, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if epoch <= 0 {
		epoch = 10 * time.Second
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	simBase, err := sdnsim.New(topo, mat, sdnsim.Config{})
	if err != nil {
		return nil, err
	}
	fabric := ctrlplane.NewFabric(simBase)
	rs, err := ctrlplane.NewReplicaSet(cfg.Replicas, ctrlplane.ControllerConfig{
		Name:           "fubar-closedloop",
		EpochMs:        uint32(epoch / time.Millisecond),
		RuleLease:      cfg.RuleLease,
		RequestTimeout: 30 * time.Second,
		Logger:         logger,
	})
	if err != nil {
		return nil, err
	}
	cp := &ControlPlane{
		topo:        topo,
		rs:          rs,
		fabric:      fabric,
		leasePolicy: cfg.LeasePolicy,
		generation:  1,
	}
	for node := 0; node < topo.NumNodes(); node++ {
		agent, err := ctrlplane.NewManagedAgent(uint32(node), topo.NodeName(topology.NodeID(node)),
			fabric.Datapath(topology.NodeID(node)), rs, ctrlplane.AgentConfig{
				RuleLease:     cfg.RuleLease,
				FailAction:    cfg.LeasePolicy,
				ReconnectBase: 2 * time.Millisecond,
				ReconnectMax:  250 * time.Millisecond,
				Logger:        logger,
			})
		if err != nil {
			cp.Close()
			return nil, fmt.Errorf("scenario: agent %d: %w", node, err)
		}
		cp.agents = append(cp.agents, agent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitForSwitchesCtx(ctx, topo.NumNodes()); err != nil {
		cp.Close()
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return cp, nil
}

// FailController implements FaultInjector: it kills the replica in the
// given seat. Seats that don't exist, are already down, or are the last
// one live make the event a deterministic no-op (with the reason in the
// description), so one scenario replays against control planes of any
// replica count.
func (cp *ControlPlane) FailController(replica int) (string, error) {
	if replica >= cp.rs.Size() {
		return fmt.Sprintf("controller-fail %d (no such seat)", replica), nil
	}
	if err := cp.rs.Fail(replica); err != nil {
		return fmt.Sprintf("controller-fail %d refused (%v)", replica, err), nil
	}
	return fmt.Sprintf("controller-fail %d (epoch %d, %d live)", replica, cp.rs.Epoch(), cp.rs.LiveReplicas()), nil
}

// RecoverController implements FaultInjector: it re-seats a previously
// failed replica. A no-op when the seat is live or absent.
func (cp *ControlPlane) RecoverController(replica int) (string, error) {
	if replica >= cp.rs.Size() {
		return fmt.Sprintf("controller-recover %d (no such seat)", replica), nil
	}
	if err := cp.rs.Recover(replica); err != nil {
		return fmt.Sprintf("controller-recover %d refused (%v)", replica, err), nil
	}
	return fmt.Sprintf("controller-recover %d (%d live)", replica, cp.rs.LiveReplicas()), nil
}

// Close shuts every replica and agent down and waits for the agent
// connect loops to drain. Safe to call more than once.
func (cp *ControlPlane) Close() error {
	if cp.rs != nil {
		cp.rs.Close()
		for _, a := range cp.agents {
			a.Close()
		}
		cp.agents = nil
		cp.rs = nil
	}
	return nil
}

// closedLoop is one closed-loop replay's live state over a (possibly
// borrowed) control plane.
type closedLoop struct {
	en   *engine
	opts ClosedLoopOptions
	cp   *ControlPlane
	seed int64
	// cm holds the control-plane metric handles (nil when telemetry is
	// off); the engine's tm/tracer cover the scenario-level ones.
	cm *telemetry.CtrlplaneMetrics
}

// StreamClosedLoop replays the scenario with the control plane in the
// loop, building a private ControlPlane that lives for the duration of
// the stream. See StreamClosedLoopOn for the per-epoch cycle and
// RunClosedLoop for the collected form.
func StreamClosedLoop(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts ClosedLoopOptions) iter.Seq2[EpochResult, error] {
	return func(yield func(EpochResult, error) bool) {
		cp, err := NewControlPlaneCfg(topo, mat, opts.SimEpoch, opts.Logger, ControlPlaneConfig{
			Replicas:    opts.Replicas,
			RuleLease:   opts.RuleLease,
			LeasePolicy: opts.LeasePolicy,
		})
		if err != nil {
			yield(EpochResult{}, err)
			return
		}
		defer cp.Close()
		for er, err := range StreamClosedLoopOn(ctx, cp, topo, mat, sc, opts) {
			if !yield(er, err) {
				return
			}
		}
	}
}

// StreamClosedLoopOn replays the scenario with an existing control
// plane in the loop, yielding one EpochResult per epoch. Per epoch it:
//
//  1. applies the epoch's events and materializes the epoch's
//     ground-truth instance;
//  2. repairs the previously installed allocation onto it
//     (core.RepairWarmStart) and pushes the repair over the wire — the
//     immediate failover reaction that keeps the network forwarding;
//  3. runs the measurement loop: advances the simulated network
//     (internal/sdnsim) MeasureEpochs epochs, polls per-switch
//     counters over the control protocol, and folds them into a
//     traffic-matrix estimate (internal/measure);
//  4. re-optimizes the *estimated* matrix warm-started from the
//     repaired allocation under the per-epoch budget (a
//     context.WithTimeout under ctx), recording a deadline miss when
//     the budget truncates;
//  5. prices the transition make-before-break (mpls.PlanTransition:
//     transient double-reservation headroom, teardown counts) and
//     pushes the new allocation differentially — only switches whose
//     rule table changed receive a FlowMod, and every message and ack
//     is counted and checked against the environment's own ledger;
//  6. advances one more epoch to record the ground-truth utility the
//     installed allocation actually achieves.
//
// The wire FlowMod counts are real message counts, not bundle-diff
// estimates; each epoch's install records ride on
// EpochResult.Installs. With no EpochBudget a replay over a fresh
// control plane is deterministic per seed at any Core.Workers count and
// either DeltaEval mode (only Elapsed varies); a reused control plane
// carries its switch tables, so the first repair push differs exactly
// as real re-used hardware would. Cancelling ctx stops the stream at
// the next epoch or candidate-batch boundary with a final yielded
// error.
func StreamClosedLoopOn(ctx context.Context, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts ClosedLoopOptions) iter.Seq2[EpochResult, error] {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	return func(yield func(EpochResult, error) bool) {
		en, err := newEngine(topo, mat, sc, Options{Core: opts.Core, ColdStart: opts.ColdStart, Arrivals: opts.Arrivals})
		if err != nil {
			yield(EpochResult{}, err)
			return
		}
		if cp == nil || cp.rs == nil {
			yield(EpochResult{}, fmt.Errorf("scenario: nil or closed control plane"))
			return
		}
		en.faults = cp
		l := &closedLoop{en: en, opts: opts, cp: cp, seed: sc.Seed}
		if t := opts.Core.Telemetry; t != nil {
			l.cm = t.Ctrlplane()
		}
		byEpoch := en.timeline()
		for epoch := 0; epoch < sc.Epochs; epoch++ {
			if err := ctx.Err(); err != nil {
				yield(EpochResult{}, err)
				return
			}
			rng := rand.New(rand.NewSource(epochSeed(sc.Seed, epoch)))
			events, err := en.applyEpochEvents(byEpoch, epoch, rng)
			if err != nil {
				yield(EpochResult{}, err)
				return
			}
			er, err := l.runEpoch(ctx, epoch, events)
			if err != nil {
				yield(EpochResult{}, fmt.Errorf("scenario: epoch %d: %w", epoch, err))
				return
			}
			opts.Logger.LogAttrs(ctx, slog.LevelInfo, "closed loop: epoch done",
				slog.Int("epoch", epoch),
				slog.Float64("stale_utility", er.StaleUtility),
				slog.Float64("utility", er.Utility),
				slog.Float64("true_utility", er.TrueUtility),
				slog.Int("steps", er.Steps),
				slog.Int("wire_flowmods", er.WireFlowMods),
				slog.Bool("deadline_miss", er.DeadlineMiss))
			if !yield(*er, nil) {
				return
			}
		}
	}
}

// RunClosedLoop replays the scenario with the control plane in the loop
// and returns the collected epoch table — StreamClosedLoop buffered
// into a Result, with the install sequence folded into Result.Installs.
// A cancelled ctx surfaces as an error (stream to keep partial epochs).
func RunClosedLoop(ctx context.Context, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts ClosedLoopOptions) (*Result, error) {
	res := &Result{Name: sc.Name, Seed: sc.Seed, ColdStart: opts.ColdStart, ClosedLoop: true}
	if topo != nil {
		res.Topology = topo.Summary()
	}
	return collectEpochs(res, StreamClosedLoop(ctx, topo, mat, sc, opts))
}

// runEpoch drives one epoch of the closed loop.
func (l *closedLoop) runEpoch(ctx context.Context, epoch int, events []string) (*EpochResult, error) {
	var epochStart time.Time
	if l.en.tm != nil {
		epochStart = time.Now()
	}
	// The epoch's events (just applied) may have killed or recovered
	// controller replicas: settle the failover before touching the
	// environment, while the fabric still holds the ground truth the
	// cached tables were installed under — the resync pushes must
	// validate against it.
	preSettle := &EpochResult{}
	if err := l.settle(ctx, preSettle); err != nil {
		return nil, err
	}
	inst, err := l.en.materialize()
	if err != nil {
		return nil, err
	}
	trueModel, err := flowmodel.New(inst.topo, inst.mat)
	if err != nil {
		return nil, err
	}
	opt, err := l.en.optimizer(trueModel, inst.opts)
	if err != nil {
		return nil, err
	}
	er := l.en.newEpochResult(epoch, events, inst)
	er.Failovers = preSettle.Failovers
	er.ResyncFlowMods = preSettle.ResyncFlowMods

	// Repair the carried allocation onto the epoch instance. Epoch 0 has
	// nothing installed: repairing an empty allocation yields the
	// all-on-lowest-delay placement, the state of a network before FUBAR
	// runs — and the loop's first wire install.
	repaired, err := l.en.repairInstalled(opt, inst, er)
	if err != nil {
		return nil, err
	}
	if repaired == nil {
		repaired, _, err = opt.RepairWarmStart(nil)
		if err != nil {
			return nil, err
		}
	}
	staleRes := trueModel.Evaluate(repaired)
	er.StaleUtility = staleRes.NetworkUtility
	oldRates := append([]float64(nil), staleRes.BundleRate...)

	// Fresh environment for the epoch; switch tables carry over.
	sim, err := sdnsim.New(inst.topo, inst.mat, sdnsim.Config{
		Seed:         epochSeed(l.seed, epoch) ^ simSeedSalt,
		Epoch:        l.opts.SimEpoch,
		DemandJitter: l.opts.DemandJitter,
	})
	if err != nil {
		return nil, err
	}
	l.cp.fabric.Retarget(sim)

	// Failover push: restore a valid routing before anything else.
	if err := l.install(ctx, epoch, "repair", inst.mat, repaired, er); err != nil {
		return nil, err
	}

	// Measurement loop: advance the network, poll counters over the
	// wire, fold them into the matrix estimate.
	est := measure.NewEstimator(measure.KeysFromMatrix(inst.mat))
	for m := 0; m < l.opts.MeasureEpochs; m++ {
		if err := l.cp.fabric.RunEpoch(); err != nil {
			return nil, err
		}
		replies, err := l.cp.rs.CollectStats(ctx)
		if err != nil {
			return nil, err
		}
		if err := est.Observe(ctrlplane.MergeStats(inst.topo, replies)); err != nil {
			return nil, err
		}
	}
	er.StaleTrueUtility, _ = l.cp.fabric.TrueUtility()
	matEst, err := est.Matrix(inst.topo)
	if err != nil {
		return nil, err
	}
	estModel, err := flowmodel.New(inst.topo, matEst)
	if err != nil {
		return nil, err
	}

	// Budgeted re-optimization of the estimated matrix, warm-started
	// from the repaired install. The budget is a context deadline under
	// the replay's context, so an outer cancellation or deadline still
	// wins. The stale evaluation above stays: it runs on the true matrix,
	// which the optimizer (driven by the estimated one) never sees.
	if opt, err = l.en.optimizer(estModel, inst.opts); err != nil {
		return nil, err
	}
	runCtx := ctx
	if l.opts.EpochBudget > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, l.opts.EpochBudget)
		defer cancel()
	}
	var initial []flowmodel.Bundle
	if !l.opts.ColdStart && epoch > 0 {
		initial = repaired
		er.WarmStart = true
	}
	sol, err := opt.RunWarm(runCtx, initial)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the replay itself was cancelled or timed out
	}
	er.DeadlineMiss = sol.Stop == core.StopDeadline
	er.Utility = sol.Utility
	er.Steps = sol.Steps
	er.Escalations = sol.Escalations
	er.Stop = sol.Stop
	er.StopReason = sol.Stop.String()
	er.Elapsed = sol.Elapsed

	// Price the transition make-before-break, then push it.
	plan := mpls.PlanTransition(inst.topo,
		reservedPaths(repaired, oldRates, inst.keys),
		reservedPaths(sol.Bundles, sol.Result.BundleRate, inst.keys))
	er.MBBHeadroom = plan.MinHeadroomFrac
	er.MBBTeardowns = plan.Teardowns
	er.MBBSetups = plan.Setups
	if err := l.install(ctx, epoch, "reopt", inst.mat, sol.Bundles, er); err != nil {
		return nil, err
	}

	// Settle: what the published allocation actually delivers.
	if err := l.cp.fabric.RunEpoch(); err != nil {
		return nil, err
	}
	er.TrueUtility, _ = l.cp.fabric.TrueUtility()

	// Estimated churn (bundle-list diff), for comparison with the
	// counted wire mods, and carry the installed state forward.
	l.en.recordChurn(er, inst, sol.Bundles)
	l.en.recordEpochMetrics(er, epochStart)
	if l.cm != nil {
		if er.DeadlineMiss {
			l.cm.DeadlineMisses.Inc()
		}
		l.cm.MBBHeadroom.Set(er.MBBHeadroom)
		l.cm.MBBSetups.Add(int64(er.MBBSetups))
		l.cm.MBBTeardowns.Add(int64(er.MBBTeardowns))
		l.cm.TrueUtility.Set(er.TrueUtility)
	}
	return er, nil
}

// settle reconciles a possible failover before the epoch's own work:
// it waits for every switch to be homed on some live replica and for
// all rule-table handoffs to finish, then checks the fabric ledger —
// its growth since the last install must be exactly the acked resyncs
// plus any fail-closed lease wipes, i.e. no FlowMod reached a switch
// unaccounted. The per-epoch failover/resync deltas land on er and the
// telemetry counters.
func (l *closedLoop) settle(ctx context.Context, er *EpochResult) error {
	cp := l.cp
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := cp.rs.WaitForSwitchesCtx(wctx, cp.topo.NumNodes()); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	if err := cp.rs.QuiesceResyncs(wctx); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	st := cp.rs.Stats()
	resyncDelta := st.ResyncsAcked - cp.resyncBase
	cp.resyncBase = st.ResyncsAcked
	failoverDelta := st.Failovers - cp.failoverBase
	cp.failoverBase = st.Failovers
	retryDelta := st.RPCRetries - cp.retryBase
	cp.retryBase = st.RPCRetries
	expiries := cp.expiries()
	var wipeDelta int64
	if cp.leasePolicy == ctrlplane.FailClosed {
		// Only fail-closed expiries install (an empty table) and ack.
		wipeDelta = expiries - cp.expiryBase
	}
	cp.expiryBase = expiries
	expRules := cp.ExpiredRules()
	expRuleDelta := expRules - cp.expRuleBase
	cp.expRuleBase = expRules

	acked := cp.fabric.AckedFlowMods()
	if got := int64(acked - cp.ackedBase); got != resyncDelta+wipeDelta {
		return fmt.Errorf("settle: switches acked %d unsolicited FlowMods, want %d resyncs + %d lease wipes",
			got, resyncDelta, wipeDelta)
	}
	cp.ackedBase = acked
	er.Failovers = int(failoverDelta)
	er.ResyncFlowMods = int(resyncDelta)
	if l.cm != nil {
		l.cm.Failovers.Add(failoverDelta)
		l.cm.Resyncs.Add(resyncDelta)
		l.cm.RPCRetries.Add(retryDelta)
		l.cm.ExpiredRules.Add(expRuleDelta)
	}
	return nil
}

// install pushes an allocation differentially, records the install on
// the epoch row, and cross-checks the counted acks against the fabric's
// own ledger (the "±0 of what the switches actually acked" contract).
func (l *closedLoop) install(ctx context.Context, epoch int, phase string, mat *traffic.Matrix, bundles []flowmodel.Bundle, er *EpochResult) error {
	cp := l.cp
	out, err := cp.rs.InstallAllocationDiff(ctx, mat, bundles, cp.generation)
	if err != nil {
		return fmt.Errorf("%s install generation %d: %w", phase, cp.generation, err)
	}
	cp.generation++
	if out.Acks != out.FlowMods {
		return fmt.Errorf("%s install: %d FlowMods but %d acks", phase, out.FlowMods, out.Acks)
	}
	acked := cp.fabric.AckedFlowMods()
	if got := acked - cp.ackedBase; got != out.FlowMods {
		return fmt.Errorf("%s install: controller counted %d FlowMods, switches acked %d", phase, out.FlowMods, got)
	}
	cp.ackedBase = acked
	er.WireFlowMods += out.FlowMods
	er.WireRules += out.Rules
	er.InstallAcks += out.Acks
	if l.cm != nil {
		l.cm.Installs.Inc()
		l.cm.WireFlowMods.Add(int64(out.FlowMods))
		l.cm.WireRules.Add(int64(out.Rules))
		l.cm.InstallAcks.Add(int64(out.Acks))
	}
	er.Installs = append(er.Installs, InstallRecord{
		Epoch:      epoch,
		Generation: out.Generation,
		Phase:      phase,
		FlowMods:   out.FlowMods,
		Rules:      out.Rules,
		Acks:       out.Acks,
	})
	return nil
}

// reservedPaths converts an allocation plus its evaluated bundle rates
// into MBB planner input, keyed by the scenario's stable aggregate
// keys.
func reservedPaths(bundles []flowmodel.Bundle, rates []float64, keys []int64) []mpls.ReservedPath {
	out := make([]mpls.ReservedPath, 0, len(bundles))
	for i, b := range bundles {
		if len(b.Edges) == 0 || b.Flows <= 0 {
			continue
		}
		r := mpls.ReservedPath{Key: keys[b.Agg], Edges: b.Edges}
		if i < len(rates) {
			r.Rate = rates[i]
		}
		out = append(out, r)
	}
	return out
}
