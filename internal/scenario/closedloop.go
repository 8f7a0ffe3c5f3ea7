package scenario

import (
	"context"
	"fmt"
	"log/slog"
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

// simSeedSalt decouples the simulator's jitter stream from the event
// RNG stream derived from the same (seed, epoch).
const simSeedSalt = 0x73696d5f657063 // "sim_epc"

// measureEpochs is the closed loop's measurement cadence (§2.1–2.2: the
// controller re-optimizes on periodically polled switch counters): how
// many simulator measurement epochs are polled and folded into the
// traffic-matrix estimate before each re-optimization.
const measureEpochs = 2

// ControlPlane is the persistent half of a closed-loop replay: a
// controller replica set, one fail-safe switch agent per POP over
// loopback TCP, and the fabric adapting the simulated network into
// per-switch datapaths. Switches are hardware, epochs (and whole
// replays) are weather: a long-lived Session keeps one ControlPlane
// across any number of ReplayClosedLoop calls, with switch tables,
// install generations and ack ledgers carrying over exactly as a
// production controller's would. Whoever built it owns it: Stream only
// borrows it, and Close releases the sockets. Not safe for concurrent
// replays.
type ControlPlane struct {
	topo   *topology.Topology
	rs     *ctrlplane.ReplicaSet
	fabric *ctrlplane.Fabric
	agents []*ctrlplane.ManagedAgent

	leasePolicy ctrlplane.FailPolicy

	generation uint64
	ackedBase  int // fabric AckedFlowMods watermark

	// last is the ledger settle took last, which it diffs the next one
	// against: it attributes each epoch's unsolicited fabric acks
	// (resyncs, fail-closed wipes) and reports per-epoch deltas.
	last ledger
}

// ledger is what a settle reads of the control plane's cumulative
// counters: the replica set's HA counters and the agents' lease expiries
// and the rules they caught, summed over the switches.
type ledger struct {
	ha                     ctrlplane.HAStats
	expiries, expiredRules int64
}

// ledger reads the control plane's cumulative counters.
func (cp *ControlPlane) ledger() ledger {
	l := ledger{ha: cp.rs.Stats()}
	for _, a := range cp.agents {
		l.expiries += a.Expiries()
		l.expiredRules += a.ExpiredRules()
	}
	return l
}

// NewControlPlane starts a control plane over topo: opts.Replicas
// controller replicas and one fail-safe (auto-reconnecting) switch agent
// per topology node over loopback TCP, agents and controllers logging to
// opts.Logger. Agents home onto replicas by the set's rendezvous dial
// order, which shards install load and defines failover succession;
// opts.RuleLease and opts.LeasePolicy are their fail-safe. The
// matrix seeds the placeholder simulator the fabric starts against (each
// replay epoch retargets it). The caller owns the result and closes it.
func NewControlPlane(topo *topology.Topology, mat *traffic.Matrix, opts Options) (*ControlPlane, error) {
	opts = opts.withDefaults()
	simBase, err := sdnsim.New(topo, mat, sdnsim.Config{})
	if err != nil {
		return nil, err
	}
	fabric := ctrlplane.NewFabric(simBase)
	cfg := ctrlplane.Config{
		RuleLease:      opts.RuleLease,
		FailAction:     opts.LeasePolicy,
		RequestTimeout: 30 * time.Second,
		Logger:         opts.Logger,
	}
	rs, err := ctrlplane.NewReplicaSet(opts.Replicas, cfg)
	if err != nil {
		return nil, err
	}
	cp := &ControlPlane{
		topo:        topo,
		rs:          rs,
		fabric:      fabric,
		leasePolicy: opts.LeasePolicy,
		generation:  1,
	}
	for node := 0; node < topo.NumNodes(); node++ {
		agent, err := ctrlplane.NewManagedAgent(uint32(node), topo.NodeName(topology.NodeID(node)),
			fabric.Datapath(topology.NodeID(node)), rs, cfg)
		if err != nil {
			cp.Close()
			return nil, fmt.Errorf("scenario: agent %d: %w", node, err)
		}
		cp.agents = append(cp.agents, agent)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.Settle(ctx, topo.NumNodes()); err != nil {
		cp.Close()
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return cp, nil
}

// FailController kills the replica in the given seat — what a
// ControllerFail event does during a replay — and describes the outcome
// for the epoch's event log. Seats that don't exist, are already down, or
// are the last one live make it a deterministic no-op (with the reason in
// the description), so one scenario replays against control planes of any
// replica count.
func (cp *ControlPlane) FailController(replica int) string {
	if replica >= cp.rs.Size() {
		return fmt.Sprintf("controller-fail %d (no such seat)", replica)
	}
	if err := cp.rs.Fail(replica); err != nil {
		return fmt.Sprintf("controller-fail %d refused (%v)", replica, err)
	}
	return fmt.Sprintf("controller-fail %d (epoch %d, %d live)", replica, cp.rs.Epoch(), cp.rs.LiveReplicas())
}

// RecoverController re-seats a previously failed replica (a
// ControllerRecover event) and describes the outcome. A no-op when the
// seat is live or absent.
func (cp *ControlPlane) RecoverController(replica int) string {
	if replica >= cp.rs.Size() {
		return fmt.Sprintf("controller-recover %d (no such seat)", replica)
	}
	if err := cp.rs.Recover(replica); err != nil {
		return fmt.Sprintf("controller-recover %d refused (%v)", replica, err)
	}
	return fmt.Sprintf("controller-recover %d (%d live)", replica, cp.rs.LiveReplicas())
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

// closedLoop is the closed loop's half of a replay over a borrowed control
// plane: the stages engine.runEpoch calls around the shared epoch skeleton,
// in the order they are declared here.
type closedLoop struct {
	cp   *ControlPlane
	opts Options // defaults filled
	seed int64
	// cm holds the control-plane metric handles (nil when telemetry is
	// off); the engine's tm/tracer cover the scenario-level ones.
	cm *telemetry.CtrlplaneMetrics

	// Buffers kept from epoch to epoch (DESIGN.md "Closed-loop replay").
	oldRates []float64              // pushRepair's stale rates, read by publish
	est      measure.Estimator      // estimate's, Reset to each epoch's keys
	estMat   traffic.Matrix         // est's matrix, rebuilt by each estimate
	estModel flowmodel.Model        // the model over estMat the optimizer runs on
	merged   sdnsim.EpochStats      // one stats round's replies, merged
	reserved [2][]mpls.ReservedPath // publish's MBB input: repaired, re-optimized
	planner  mpls.Planner
}

// over is a context that is already done: Settle on it reports whether the
// set is settled without waiting, arming no timer.
var over = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// settle reconciles a possible failover before the epoch's own work:
// it waits for every switch to be homed on some live replica and for
// all rule-table handoffs to finish — arming its bound only when the set
// is not settled already — then checks the fabric ledger: its growth
// since the last install must be exactly the acked resyncs plus any
// fail-closed lease wipes, i.e. no FlowMod reached a switch unaccounted.
// The per-epoch failover/resync deltas land on er and the telemetry
// counters.
func (l *closedLoop) settle(ctx context.Context, er *EpochResult) error {
	cp := l.cp
	if cp.rs.Settle(over, cp.topo.NumNodes()) != nil {
		wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err := cp.rs.Settle(wctx, cp.topo.NumNodes())
		cancel()
		if err != nil {
			return fmt.Errorf("settle: %w", err)
		}
	}
	now, was := cp.ledger(), cp.last
	cp.last = now
	resyncs := now.ha.ResyncsAcked - was.ha.ResyncsAcked
	var wipes int64
	if cp.leasePolicy == ctrlplane.FailClosed {
		// Only fail-closed expiries install (an empty table) and ack.
		wipes = now.expiries - was.expiries
	}
	acked := cp.fabric.AckedFlowMods()
	if got := int64(acked - cp.ackedBase); got != resyncs+wipes {
		return fmt.Errorf("settle: switches acked %d unsolicited FlowMods, want %d resyncs + %d lease wipes",
			got, resyncs, wipes)
	}
	cp.ackedBase = acked
	failovers := now.ha.Failovers - was.ha.Failovers
	er.Failovers = int(failovers)
	er.ResyncFlowMods = int(resyncs)
	if l.cm != nil {
		l.cm.Failovers.Add(failovers)
		l.cm.Resyncs.Add(resyncs)
		l.cm.RPCRetries.Add(now.ha.RPCRetries - was.ha.RPCRetries)
		l.cm.ExpiredRules.Add(now.expiredRules - was.expiredRules)
	}
	return nil
}

// pushRepair is the failover reaction. It evaluates the repaired
// allocation on truth, the epoch's ground-truth arena — the stale utility,
// and the old paths' rates make-before-break pricing reserves, copied to
// oldRates for publish — re-points the control plane's simulated network
// at the epoch's instance under the carried switch tables, and pushes the
// repair over the wire, restoring a valid routing before anything else.
func (l *closedLoop) pushRepair(ctx context.Context, epoch int, inst *epochInstance, truth *flowmodel.Eval, repaired []flowmodel.Bundle, er *EpochResult) error {
	staleRes := truth.Evaluate(repaired)
	er.StaleUtility = staleRes.NetworkUtility
	l.oldRates = append(l.oldRates[:0], staleRes.BundleRate...)
	if err := l.cp.fabric.Retarget(inst.topo, inst.mat, sdnsim.Config{
		Seed: epochSeed(l.seed, epoch) ^ simSeedSalt,
	}); err != nil {
		return err
	}
	return l.install(ctx, epoch, "repair", inst.mat, repaired, er)
}

// estimate is the measurement loop: advance the network, poll counters
// over the wire, fold them into the matrix estimate, and return the model
// of that estimate — what the controller believes the demand to be.
func (l *closedLoop) estimate(ctx context.Context, inst *epochInstance, er *EpochResult) (*flowmodel.Model, error) {
	est := &l.est
	est.Reset(inst.mat)
	for m := 0; m < measureEpochs; m++ {
		if err := l.cp.fabric.RunEpoch(); err != nil {
			return nil, err
		}
		replies, err := l.cp.rs.CollectStats(ctx)
		if err != nil {
			return nil, err
		}
		ctrlplane.MergeStats(inst.topo, replies, &l.merged)
		if err := est.Observe(&l.merged); err != nil {
			return nil, err
		}
	}
	er.StaleTrueUtility, _ = l.cp.fabric.TrueUtility()
	if freshOptimizer != nil {
		matEst, err := est.Matrix(inst.topo)
		if err != nil {
			return nil, err
		}
		return flowmodel.New(inst.topo, matEst)
	}
	if err := measure.RebuildMatrix(&l.estMat, est, inst.topo); err != nil {
		return nil, err
	}
	if err := flowmodel.Rebuild(&l.estModel, inst.topo, &l.estMat); err != nil {
		return nil, err
	}
	return &l.estModel, nil
}

// publish prices the transition from the repaired allocation to the
// re-optimized one make-before-break, pushes it, and advances the network
// one more epoch to record what the published allocation actually
// delivers.
func (l *closedLoop) publish(ctx context.Context, epoch int, inst *epochInstance, repaired []flowmodel.Bundle, sol *core.Solution, er *EpochResult) error {
	l.reserved[0] = reservedPaths(l.reserved[0][:0], repaired, l.oldRates, inst.keys)
	l.reserved[1] = reservedPaths(l.reserved[1][:0], sol.Bundles, sol.Result.BundleRate, inst.keys)
	plan := l.planner.Plan(inst.topo, l.reserved[0], l.reserved[1])
	er.MBBHeadroom = plan.MinHeadroomFrac
	er.MBBTeardowns = plan.Teardowns
	er.MBBSetups = plan.Setups
	if err := l.install(ctx, epoch, "reopt", inst.mat, sol.Bundles, er); err != nil {
		return err
	}
	if err := l.cp.fabric.RunEpoch(); err != nil {
		return err
	}
	er.TrueUtility, _ = l.cp.fabric.TrueUtility()
	if l.cm != nil {
		if er.DeadlineMiss {
			l.cm.DeadlineMisses.Inc()
		}
		l.cm.MBBHeadroom.Set(er.MBBHeadroom)
		l.cm.MBBSetups.Add(int64(er.MBBSetups))
		l.cm.MBBTeardowns.Add(int64(er.MBBTeardowns))
		l.cm.TrueUtility.Set(er.TrueUtility)
	}
	l.opts.Logger.LogAttrs(ctx, slog.LevelInfo, "closed loop: epoch done",
		slog.Int("epoch", epoch),
		slog.Float64("stale_utility", er.StaleUtility),
		slog.Float64("utility", er.Utility),
		slog.Float64("true_utility", er.TrueUtility),
		slog.Int("steps", er.Steps),
		slog.Int("wire_flowmods", er.WireFlowMods),
		slog.Bool("deadline_miss", er.DeadlineMiss))
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

// reservedPaths appends to out an allocation plus its evaluated bundle
// rates as MBB planner input, keyed by the scenario's stable aggregate
// keys.
func reservedPaths(out []mpls.ReservedPath, bundles []flowmodel.Bundle, rates []float64, keys []int64) []mpls.ReservedPath {
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
