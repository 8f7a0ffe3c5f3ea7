package main

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"time"

	"fubar"
	"fubar/internal/scenario"
)

// replayKind is what the two replay workloads differ in.
type replayKind struct {
	closed   bool // through the control plane (Session.ReplayClosedLoop)
	instance func() (*fubar.Topology, *fubar.Matrix, error)
	timeline func(seed int64, sz sizes) (fubar.Scenario, error)
}

// replay-he-crisis: open-loop Session.Replay of crisis timelines (flash
// crowd + maintenance window + churn) on the HE-31 benchmark instance,
// warm-started — the paper's periodic re-optimization:
// warm-start repair, per-epoch model rebuild, forbidden-link path
// generation, escalation at local optima.
var heWorkload = workload{
	name: "replay-he-crisis",
	setup: func(e env) (instance, error) {
		return setupReplay(e, &replayKind{
			instance: func() (*fubar.Topology, *fubar.Matrix, error) { return scenario.HEBenchInstance(heMatrixSeed) },
			timeline: func(seed int64, sz sizes) (fubar.Scenario, error) {
				// The canned "crisis" timeline with a milder flash crowd
				// (sizes.heSpike): same incident, a quarter of the cost,
				// so a run averages over thirty incidents, not seven.
				return fubar.CrisisScenario(seed, sz.heEpochs, sz.heSpike, sz.heArrivals), nil
			},
		})
	},
}

// closedloop-ring-soak: Session.ReplayClosedLoop of sparse soak
// timelines on the 6-node soak ring at 3 controller replicas and
// Workers=1 (the daemon's default tenant budget): thousands of
// near-idle epochs where the fixed per-epoch cost and the control plane
// dominate.
var ringWorkload = workload{
	name: "closedloop-ring-soak",
	setup: func(e env) (instance, error) {
		return setupReplay(e, &replayKind{
			closed:   true,
			instance: ringInstance,
			timeline: func(seed int64, sz sizes) (fubar.Scenario, error) {
				return fubar.SoakScenario(seed, sz.ringEpochs, sz.ringPeriod), nil
			},
		})
	},
}

// ringTopology is the soak ring every ring-based workload shares.
func ringTopology() (*fubar.Topology, error) {
	return fubar.RingTopology(6, 3, 600*fubar.Kbps, ringInstanceSeed)
}

// ringInstance is cmd/fubar-bench's soakInstance shape: the ring with
// two shared-risk groups and a light all-pairs matrix (36 aggregates).
func ringInstance() (*fubar.Topology, *fubar.Matrix, error) {
	topo, err := ringTopology()
	if err != nil {
		return nil, nil, err
	}
	topo, err = topo.WithSRLGs([]fubar.SRLG{
		{Name: "ga", Links: []fubar.LinkID{0, 2}},
		{Name: "gb", Links: []fubar.LinkID{4}},
	})
	if err != nil {
		return nil, nil, err
	}
	cfg := fubar.DefaultGenConfig(ringInstanceSeed + 6)
	cfg.RealTimeFlows = [2]int{1, 4}
	cfg.BulkFlows = [2]int{1, 3}
	mat, err := fubar.GenerateTraffic(topo, cfg)
	return topo, mat, err
}

type replayInstance struct {
	e    env
	kind *replayKind
	topo *fubar.Topology
	mat  *fubar.Matrix
	sess *fubar.Session
	tel  *fubar.Telemetry
	tr   *optTracer
	// primeWire is the wire FlowMods of the set-up epoch that builds the
	// control plane, so the ledger check can account for them.
	primeWire int
}

func setupReplay(e env, kind *replayKind) (instance, error) {
	topo, mat, err := kind.instance()
	if err != nil {
		return nil, err
	}
	r := &replayInstance{e: e, kind: kind, topo: topo, mat: mat}
	opts := []fubar.SessionOption{fubar.WithWorkers(e.workersSetting())}
	// The closed loop always carries a registry, as a daemon tenant
	// does: its wire counter is the ledger verify reconciles. The open
	// replay carries one on the traced pass only, to count candidates.
	if kind.closed || e.rec != nil {
		r.tel = fubar.NewTelemetry()
		opts = append(opts, fubar.WithTelemetry(r.tel))
	}
	if kind.closed {
		opts = append(opts, fubar.WithReplicas(3))
	}
	if e.rec != nil {
		r.tr = &optTracer{rec: e.rec}
		opts = append(opts, fubar.WithObserver(r.tr.observe))
	}
	if r.sess, err = fubar.NewSession(topo, mat, opts...); err != nil {
		return nil, err
	}
	if kind.closed {
		// One epoch builds the control plane (listeners, agents, the
		// first full install), so the clock never sees it.
		prime := fubar.SoakScenario(subSeed(e.seed, -1), 1, 1)
		for er, err := range r.sess.ReplayClosedLoop(context.Background(), prime) {
			if err != nil {
				_ = r.sess.Close()
				return nil, err
			}
			r.primeWire += er.WireFlowMods
		}
		if r.tr != nil {
			r.tr.stamps = r.tr.stamps[:0]
		}
	}
	return r, nil
}

// stream starts timeline k's replay.
func (r *replayInstance) stream(ctx context.Context, k int) (iter.Seq2[fubar.EpochRecord, error], int, error) {
	sc, err := r.kind.timeline(subSeed(r.e.seed, k), r.e.sz)
	if err != nil {
		return nil, 0, err
	}
	if r.kind.closed {
		return r.sess.ReplayClosedLoop(ctx, sc), sc.Epochs, nil
	}
	return r.sess.Replay(ctx, sc), sc.Epochs, nil
}

// run replays whole timelines until lim: a pass never ends inside one,
// so every pass holds the same mix of quiet and incident epochs however
// fast the machine is.
func (r *replayInstance) run(ctx context.Context, lim limit) (*pass, error) {
	p := &pass{laneOps: make([]int, 1)}
	var records []fubar.EpochRecord
	start := time.Now()
	root := noSpan
	if r.e.rec != nil {
		root = r.e.rec.begin("pass", noSpan, 0, start)
	}
	// A replay error leaves the session unusable (every later timeline
	// fails at once, and n would never reach a count limit): it ends
	// the pass, counted as failed.
	n, broken := 0, false
	for k := 0; !lim.done(0, n, start); k++ {
		seq, epochs, err := r.stream(ctx, k)
		if err != nil {
			return nil, err
		}
		req := int64(k + 1)
		parent := root
		if r.e.rec != nil {
			parent = r.e.rec.begin("scenario.replay", root, req, time.Now())
		}
		want := 0
		resume := time.Now()
		for er, err := range seq {
			yield := time.Now()
			if r.tr != nil {
				r.tr.epoch(parent, req, resume, yield)
			}
			p.attempted++
			if err != nil {
				p.fail("timeline %d: %v", k, err)
				broken = true
				break
			}
			n++
			p.laneOps[0] = n
			p.latMs = append(p.latMs, ms(yield.Sub(resume)))
			records = append(records, er)
			if er.Epoch != want {
				p.fail("timeline %d yielded epoch %d, want %d", k, er.Epoch, want)
			}
			want++
			if k == 0 {
				p.unitWall += yield.Sub(resume)
			}
			r.e.calibrate(parent)
			resume = time.Now()
		}
		if r.e.rec != nil {
			r.e.rec.finish(parent, time.Now())
		}
		if want != epochs && p.failed == 0 {
			p.fail("timeline %d ended after %d of %d epochs", k, want, epochs)
		}
		if broken {
			break
		}
	}
	end := time.Now()
	if r.e.rec != nil {
		r.e.rec.finish(root, end)
	}
	p.wall = end.Sub(start)
	p.epochs = len(records)
	for i := range records {
		er := &records[i]
		p.utilities = append(p.utilities, er.Utility)
		p.steps += er.Steps
		p.wireFlowMods += er.WireFlowMods
		p.optimizeWall += er.Elapsed
		if why := r.checkEpoch(er); why != "" {
			p.fail("epoch record %d: %s", i, why)
		}
		p.results = append(p.results, epochResult(er))
	}
	p.records = records
	per := r.epochsPerTimeline()
	p.unitResults = p.results[:min(per, len(p.results))]
	for i := 0; i+per <= len(p.results); i += per {
		p.unit("timeline", p.results[i:i+per]...)
	}
	if r.tel != nil {
		p.candidates = r.tel.Snapshot().Counters["fubar_eval_utility_only_calls_total"]
	}
	return p, nil
}

// checkEpoch is the per-epoch invariant: a sane utility that
// re-optimization did not make worse than the stale allocation it
// started from and, in the closed loop, a wire ledger that balances
// and a network that still delivers.
func (r *replayInstance) checkEpoch(er *fubar.EpochRecord) string {
	if !checkUtility(er.Utility) {
		return fmt.Sprintf("utility %v out of range", er.Utility)
	}
	if !r.kind.closed && er.Utility < er.StaleUtility-1e-9 {
		return fmt.Sprintf("utility %v below the stale allocation's %v", er.Utility, er.StaleUtility)
	}
	if r.kind.closed {
		if er.WireFlowMods != er.InstallAcks {
			return fmt.Sprintf("%d wire FlowMods but %d acks", er.WireFlowMods, er.InstallAcks)
		}
		if !checkUtility(er.TrueUtility) {
			return fmt.Sprintf("true utility %v out of range", er.TrueUtility)
		}
	}
	return ""
}

// epochResult is an epoch record with its wall-clock field removed, as
// the JSON the daemon streams plus the install sequence JSON omits.
func epochResult(er *fubar.EpochRecord) string {
	c := *er
	c.Elapsed = 0
	b, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return fmt.Sprintf("%s installs=%v", b, c.Installs)
}

// verify replays timeline 0 at the other worker count on a fresh
// session (and control plane) and compares it epoch for epoch, then
// reconciles the control plane's wire counter with the epochs' sum.
func (r *replayInstance) verify(ctx context.Context, p *pass) (time.Duration, error) {
	if r.kind.closed {
		got := r.tel.Snapshot().Counters["fubar_ctrlplane_wire_flowmods_total"]
		if want := int64(r.primeWire + p.wireFlowMods); got != want {
			p.fail("fubar_ctrlplane_wire_flowmods_total is %d, epochs sum to %d", got, want)
		}
	}
	if len(p.results) == 0 {
		return 0, nil
	}
	e := r.e
	e.rec, e.cal = nil, nil
	e.workers = verifyWorkers
	fresh, err := setupReplay(e, r.kind)
	if err != nil {
		return 0, err
	}
	defer fresh.close()
	seq, epochs, err := fresh.(*replayInstance).stream(ctx, 0)
	if err != nil {
		return 0, err
	}
	have := min(epochs, len(p.results))
	i := 0
	t0 := time.Now()
	for er, err := range seq {
		if err != nil {
			return 0, err
		}
		if got := epochResult(&er); got != p.results[i] {
			p.fail("Workers=%d re-run differs at epoch %d:\n got %s\nwant %s", e.workers, i, got, p.results[i])
			break
		}
		if i++; i == have {
			break
		}
	}
	return time.Since(t0), nil
}

func (r *replayInstance) layerInputs() (*fubar.Topology, *fubar.Matrix) { return r.topo, r.mat }
func (r *replayInstance) close() error                                  { return r.sess.Close() }

func (r *replayInstance) epochsPerTimeline() int {
	if r.kind.closed {
		return r.e.sz.ringEpochs
	}
	return r.e.sz.heEpochs
}
