package scenario

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"slices"
	"time"

	"fubar/internal/core"
	"fubar/internal/flowmodel"
	"fubar/internal/pathgen"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
	"fubar/internal/unit"
	"fubar/internal/utility"
)

// scenAgg is one aggregate's scenario-lifetime state. The key survives
// matrix re-indexing; flows at epoch e are
// round(baseFlows * globalScale * mult), floored at 1.
type scenAgg struct {
	key       int64
	src, dst  topology.NodeID
	class     utility.Class
	fn        utility.Function
	weight    float64
	baseFlows int
	mult      float64
	active    bool
}

// engine holds one replay's accumulated state.
type engine struct {
	base     *topology.Topology
	baseCaps []unit.Bandwidth
	// capFactor accumulates CapacityScale events per directed link;
	// failed marks directed links of out-of-service physical links
	// (unplanned failures and maintenance drains alike).
	capFactor   []float64
	failed      []bool
	failedOrder []topology.LinkID // forward IDs of unplanned-down physical links, oldest first
	maintOrder  []topology.LinkID // forward IDs of drained physical links, oldest first
	outAdj      [][]topology.LinkID
	inAdj       [][]topology.LinkID

	aggs    []scenAgg
	nextKey int64
	scale   float64

	sc       Scenario
	opts     Options
	arrivals traffic.GenConfig

	// cl is the closed loop's half of the epoch: its stages run around the
	// shared skeleton (see runEpoch) and ControllerFail / ControllerRecover
	// events act on its control plane. nil in an open-loop replay, which
	// skips the stages and records those events as no-ops.
	cl *closedLoop

	// installed is the carried allocation in the order the optimizer
	// published it (the order a repair replays it in); installedSorted the
	// same entries ordered for the churn diff.
	installed, installedSorted []keyedBundle

	// opt is the optimizer the stream's owner lent the replay, re-bound to
	// each epoch's model: its path memo, arenas and base outlive the
	// epoch — and, in a Session's hands, the replay.
	opt *core.Optimizer

	// truth is the replay's ground-truth arena (truthOn); a warm
	// open-loop epoch never touches it.
	truth *flowmodel.Eval

	// The epoch instance, rebuilt in place every epoch (DESIGN.md "Replay
	// instance storage"): the two epoch matrices materialize alternates
	// between — a closed loop's simulator still holds the last epoch's
	// while the next is built — with the ground-truth model over each, the
	// instance that points at one pair, and the solution every epoch's run
	// writes.
	mats    [2]traffic.Matrix
	models  [2]flowmodel.Model
	matNext int
	inst    epochInstance
	sol     core.Solution
	// loop is the closed loop's stage state cl points at, buffers kept
	// from replay to replay.
	loop closedLoop

	// Scratch an epoch rewrites from empty rather than re-growing: the
	// epoch RNG (re-seeded on each epoch that has events), materialize's capacities and
	// aggregate and key lists, repairInstalled's key index and remapped
	// list, and the spare pair recordChurn builds the next installed lists
	// in.
	rng                *rand.Rand
	capBuf             []unit.Bandwidth
	aggBuf             []traffic.Aggregate
	keyBuf             []int64
	keyToID            map[int64]traffic.AggregateID
	remapBuf           []flowmodel.Bundle
	spare, spareSorted []keyedBundle

	// tm/tracer are the scenario-level live-metrics handles derived from
	// Options.Core.Telemetry (nil when telemetry is off). The core-level
	// handles ride into each epoch with the copied core options. span is
	// the span the replay runs under, labels the profile labels its epochs
	// switch between (nil when the replay's context carries none), and
	// runCtx the context an epoch hands the optimizer its span in.
	tm     *telemetry.ScenarioMetrics
	tracer *telemetry.Tracer
	span   telemetry.Span
	labels *telemetry.ProfileLabels
	runCtx telemetry.SpanContext
}

// reset validates the instance and scenario and makes en the replay state
// around the borrowed optimizer — a non-nil cp puts that control plane in
// the loop — on the storage en already has: every field a replay reads is
// rewritten, and what it only writes into — buffers, the arena, the epoch
// instance — is kept, so a reset engine replays exactly as a new one does.
// On error en must not replay until the next successful reset.
func (en *engine) reset(opt *core.Optimizer, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) error {
	if opt == nil {
		return fmt.Errorf("scenario: nil optimizer")
	}
	if topo == nil || mat == nil {
		return fmt.Errorf("scenario: nil topology or matrix")
	}
	if mat.Topology() != topo {
		return fmt.Errorf("scenario: matrix bound to a different topology")
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	nL := topo.NumLinks()
	for _, e := range sc.Events {
		switch e.Kind {
		case LinkFail, LinkRecover, CapacityScale, MaintenanceStart, MaintenanceEnd:
			if int(e.Link) >= nL {
				return fmt.Errorf("scenario: event targets link %d, topology has %d", e.Link, nL)
			}
		case SRLGFail, SRLGRecover:
			if e.Group != "" {
				if _, ok := topo.SRLGByName(e.Group); !ok {
					return fmt.Errorf("scenario: event targets undeclared SRLG %q", e.Group)
				}
			}
		}
	}
	if cp != nil && cp.rs == nil {
		return fmt.Errorf("scenario: closed control plane")
	}
	en.base, en.sc, en.opts, en.opt = topo, sc, opts, opt
	en.arrivals = traffic.DefaultGenConfig(sc.Seed)
	en.baseCaps = slices.Grow(en.baseCaps[:0], nL)[:nL]
	en.capFactor = slices.Grow(en.capFactor[:0], nL)[:nL]
	en.failed = slices.Grow(en.failed[:0], nL)[:nL]
	clear(en.failed)
	en.failedOrder, en.maintOrder = en.failedOrder[:0], en.maintOrder[:0]
	nN := topo.NumNodes()
	en.outAdj = slices.Grow(en.outAdj[:0], nN)[:nN]
	en.inAdj = slices.Grow(en.inAdj[:0], nN)[:nN]
	for v := range en.outAdj {
		en.outAdj[v], en.inAdj[v] = en.outAdj[v][:0], en.inAdj[v][:0]
	}
	for i := 0; i < nL; i++ {
		l := topo.Link(topology.LinkID(i))
		en.baseCaps[i] = l.Capacity
		en.capFactor[i] = 1
		en.outAdj[l.From] = append(en.outAdj[l.From], l.ID)
		en.inAdj[l.To] = append(en.inAdj[l.To], l.ID)
	}
	en.aggs, en.nextKey, en.scale = en.aggs[:0], 0, 1
	for i := range mat.NumAggregates() {
		a := mat.Aggregate(traffic.AggregateID(i))
		en.aggs = append(en.aggs, scenAgg{
			key: en.nextKey, src: a.Src, dst: a.Dst, class: a.Class,
			fn: a.Fn, weight: a.Weight, baseFlows: a.Flows, mult: 1, active: true,
		})
		en.nextKey++
	}
	en.installed, en.installedSorted = en.installed[:0], en.installedSorted[:0]
	en.tm, en.tracer = nil, nil
	if t := opts.Core.Telemetry; t != nil {
		en.tm = t.Scenario()
		en.tracer = t.Tracer
	}
	en.loop.cp, en.loop.opts, en.loop.seed = cp, opts.withDefaults(), sc.Seed
	en.loop.cm = opts.Core.Telemetry.Ctrlplane()
	en.cl = nil
	if cp != nil {
		en.cl = &en.loop
	}
	if en.rng == nil {
		en.rng = rand.New(rand.NewSource(0))
	}
	if en.keyToID == nil {
		en.keyToID = make(map[int64]traffic.AggregateID, mat.NumAggregates())
	}
	return nil
}

// timeline is the replay's event cursor: the scenario's events sorted
// stably by epoch (slice order preserved within one), walked forward as
// epochs are consumed in order. Memory is O(len(Events)) — independent
// of the epoch count, unlike an epoch-indexed table, which is what
// keeps a sparse million-epoch soak timeline's replay state O(1) in
// epochs.
type timeline struct {
	events []Event
	next   int
}

// timeline builds the replay cursor.
func (en *engine) timeline() *timeline {
	ev := make([]Event, len(en.sc.Events))
	copy(ev, en.sc.Events)
	slices.SortStableFunc(ev, func(a, b Event) int { return a.Epoch - b.Epoch })
	return &timeline{events: ev}
}

// at returns the events scheduled for epoch, which must be queried in
// non-decreasing order (the cursor only moves forward).
func (tl *timeline) at(epoch int) []Event {
	for tl.next < len(tl.events) && tl.events[tl.next].Epoch < epoch {
		tl.next++
	}
	start := tl.next
	for tl.next < len(tl.events) && tl.events[tl.next].Epoch == epoch {
		tl.next++
	}
	return tl.events[start:tl.next]
}

// applyEpochEvents applies epoch e's events under its deterministic RNG
// and returns the event descriptions. Only the events draw from the RNG,
// so an epoch without any leaves it unseeded.
func (en *engine) applyEpochEvents(byEpoch *timeline, epoch int) ([]string, error) {
	evs := byEpoch.at(epoch)
	if len(evs) == 0 {
		return nil, nil
	}
	en.rng.Seed(epochSeed(en.sc.Seed, epoch))
	var events []string
	for _, e := range evs {
		desc, err := en.apply(e, en.rng)
		if err != nil {
			return nil, fmt.Errorf("scenario: epoch %d: %w", epoch, err)
		}
		events = append(events, desc)
	}
	return events, nil
}

// freshOptimizer, when set, rebuilds every epoch of every replay from
// nothing: the optimizer it builds runs the epoch in place of the one the
// stream was lent, the epoch's matrices (materialize's and the closed
// loop's estimate) are built new, its solution is a deep copy of its own
// (Optimizer.RunWarm), and every stream builds its engine. Nothing outside
// export_test.go sets it: it is how the tests express the differential
// oracle "a fresh optimizer and instance every epoch" over this one loop.
var freshOptimizer func(*flowmodel.Model, core.Options) (*core.Optimizer, error)

// Replayer is a replay's storage kept from one stream to the next by
// whoever lends the streams their optimizer — a Session keeps one: the
// engine, with its epoch instance (matrices, solution, warm-start remap),
// scratch, ground-truth arena, closed-loop buffers and RNG. The zero
// Replayer is empty. A stream takes the storage when it starts and hands it
// back when it ends, however it ends, so two streams pulled in turn each run
// on storage of their own, and nothing a stream yields points into it. Not
// safe for concurrent use.
type Replayer struct {
	spare *engine
}

// Stream replays the scenario over the start instance, yielding one
// EpochResult per epoch as it completes — million-epoch timelines run in
// O(1) memory, with the caller free to stop consuming at any point. The
// base matrix must be bound to the base topology.
//
// The replay runs on opt, which the caller owns and only lends: every epoch
// re-binds it (core.Optimizer.Rebind) to that epoch's instance under
// opts.Core and carries nothing in it to the next. So between two pulls the
// caller may run it elsewhere or lend it to another stream, re-binding it to
// its own instance first, and an abandoned stream leaves nothing to undo.
//
// With a nil cp the replay is open loop: each epoch applies its events,
// repairs the installed allocation onto the epoch instance and
// re-optimizes it. With a control plane (NewControlPlane; the caller owns
// and closes it) the same epoch runs the full deployment cycle:
//
//  1. the events are applied — ControllerFail / ControllerRecover act on
//     cp — any failover they caused is settled against the switches' ack
//     ledger, and the epoch's ground-truth instance is materialized;
//  2. the previously installed allocation is repaired onto it
//     (core.RepairWarmStart) and the repair pushed over the wire — the
//     immediate failover reaction that keeps the network forwarding;
//  3. the measurement loop advances the simulated network
//     (internal/sdnsim) measureEpochs epochs, polls per-switch counters
//     over the control protocol, and folds them into a traffic-matrix
//     estimate (internal/measure);
//  4. the *estimated* matrix is re-optimized warm-started from the
//     repaired allocation under the per-epoch Budget, recording a
//     deadline miss when the budget truncates;
//  5. the transition is priced make-before-break (mpls.PlanTransition:
//     transient double-reservation headroom, teardown counts) and the new
//     allocation pushed differentially — only switches whose rule table
//     changed receive a FlowMod, and every message and ack is counted and
//     checked against the environment's own ledger;
//  6. one more simulated epoch records the ground-truth utility the
//     installed allocation actually achieves.
//
// The wire FlowMod counts are real message counts, not bundle-diff
// estimates; each epoch's install records ride on EpochResult.Installs.
//
// With no Budget a replay is deterministic for a given (scenario, seed)
// at any Core.Workers count, and equal to the full-evaluation oracle's
// replay; only EpochResult.Elapsed varies. A control plane carries its
// switch tables from one replay into the next, so the first repair push
// over a reused one differs exactly as real re-used hardware would. Cancelling ctx stops
// the stream at the next epoch (or candidate-batch) boundary with a final
// yielded error; the epochs already yielded stand.
//
// The replay runs on the replayer's storage (see Replayer): what the last
// stream left there is rewritten, never read.
func (r *Replayer) Stream(ctx context.Context, opt *core.Optimizer, cp *ControlPlane, topo *topology.Topology, mat *traffic.Matrix, sc Scenario, opts Options) iter.Seq2[EpochResult, error] {
	if ctx == nil {
		ctx = context.Background()
	}
	return func(yield func(EpochResult, error) bool) {
		en := r.spare
		r.spare = nil
		if en == nil || freshOptimizer != nil {
			en = new(engine)
		}
		defer func() {
			// Keep the storage, not the timeline: a soak's runs to millions
			// of events, and nothing reads it once its stream has ended.
			en.sc, en.runCtx = Scenario{}, telemetry.SpanContext{}
			r.spare = en
		}()
		if err := en.reset(opt, cp, topo, mat, sc, opts); err != nil {
			yield(EpochResult{}, err)
			return
		}
		en.span, en.labels = telemetry.SpanOf(ctx), telemetry.ProfileLabelsOf(ctx)
		byEpoch := en.timeline()
		for epoch := 0; epoch < sc.Epochs; epoch++ {
			if err := ctx.Err(); err != nil {
				yield(EpochResult{}, err)
				return
			}
			events, err := en.applyEpochEvents(byEpoch, epoch)
			if err != nil {
				yield(EpochResult{}, err)
				return
			}
			er, err := en.runEpoch(ctx, epoch, events)
			en.labels.Enter()
			if err != nil {
				yield(EpochResult{}, fmt.Errorf("scenario: epoch %d: %w", epoch, err))
				return
			}
			if !yield(*er, nil) {
				return
			}
		}
	}
}

// apply mutates the engine state for one event and describes it.
func (en *engine) apply(e Event, rng *rand.Rand) (string, error) {
	switch e.Kind {
	case DemandScale:
		en.scale = e.Factor
		return fmt.Sprintf("demand x%.2f", e.Factor), nil

	case DemandChurn:
		hit := 0
		for i := range en.aggs {
			if !en.aggs[i].active {
				continue
			}
			if rng.Float64() >= e.Fraction {
				continue
			}
			m := en.aggs[i].mult * math.Exp(rng.NormFloat64()*e.Factor)
			en.aggs[i].mult = math.Min(8, math.Max(0.125, m))
			hit++
		}
		return fmt.Sprintf("churn %d aggs (s=%.2f)", hit, e.Factor), nil

	case AggregateArrive:
		n := en.base.NumNodes()
		if n < 2 {
			return "+0 aggregates (no peer nodes)", nil
		}
		for i := 0; i < e.Count; i++ {
			a, err := traffic.RandomAggregate(rng, en.arrivals)
			if err != nil {
				return "", err
			}
			src := topology.NodeID(rng.Intn(n))
			dst := (src + 1 + topology.NodeID(rng.Intn(n-1))) % topology.NodeID(n)
			en.aggs = append(en.aggs, scenAgg{
				key: en.nextKey, src: src, dst: dst, class: a.Class,
				fn: a.Fn, weight: a.Weight, baseFlows: a.Flows, mult: 1, active: true,
			})
			en.nextKey++
		}
		return fmt.Sprintf("+%d aggregates", e.Count), nil

	case AggregateDepart:
		gone := 0
		for i := 0; i < e.Count; i++ {
			var active []int
			for j := range en.aggs {
				if en.aggs[j].active {
					active = append(active, j)
				}
			}
			if len(active) <= 1 {
				break
			}
			en.aggs[active[rng.Intn(len(active))]].active = false
			gone++
		}
		return fmt.Sprintf("-%d aggregates", gone), nil

	case LinkFail:
		id := e.Link
		if id < 0 {
			id = en.pickFailableLink(rng)
			if id < 0 {
				return "fail: no failable link", nil
			}
		}
		id = en.forwardID(id)
		if en.failed[id] {
			return fmt.Sprintf("fail %s (already down)", en.base.LinkName(id)), nil
		}
		en.setFailed(id, true)
		en.failedOrder = append(en.failedOrder, id)
		return fmt.Sprintf("fail %s", en.base.LinkName(id)), nil

	case LinkRecover:
		id := e.Link
		if id < 0 {
			if len(en.failedOrder) == 0 {
				return "recover: nothing down", nil
			}
			id = en.failedOrder[0]
		}
		id = en.forwardID(id)
		if !en.failed[id] || !en.removeOrder(&en.failedOrder, id) {
			// Up, or drained for maintenance (MaintenanceEnd owns those).
			return fmt.Sprintf("recover %s (not failed)", en.base.LinkName(id)), nil
		}
		en.setFailed(id, false)
		return fmt.Sprintf("recover %s", en.base.LinkName(id)), nil

	case CapacityScale:
		if e.Link < 0 {
			for i := range en.capFactor {
				en.capFactor[i] *= e.Factor
			}
			return fmt.Sprintf("capacity x%.2f (all links)", e.Factor), nil
		}
		id := en.forwardID(e.Link)
		en.capFactor[id] *= e.Factor
		if r := en.base.Link(id).Reverse; r >= 0 {
			en.capFactor[r] *= e.Factor
		}
		return fmt.Sprintf("capacity x%.2f %s", e.Factor, en.base.LinkName(id)), nil

	case SRLGFail:
		g, ok := en.pickSRLG(e.Group, rng, false)
		if !ok {
			return "srlg-fail: no group with a live member", nil
		}
		hit := 0
		for _, raw := range g.Links {
			id := en.forwardID(raw)
			if en.failed[id] {
				continue
			}
			en.setFailed(id, true)
			en.failedOrder = append(en.failedOrder, id)
			hit++
		}
		return fmt.Sprintf("srlg-fail %s (%d links)", g.Name, hit), nil

	case SRLGRecover:
		g, ok := en.pickSRLG(e.Group, rng, true)
		if !ok {
			return "srlg-recover: no group with a downed member", nil
		}
		hit := 0
		for _, raw := range g.Links {
			id := en.forwardID(raw)
			if !en.failed[id] || !en.removeOrder(&en.failedOrder, id) {
				continue // up, or drained for maintenance: not ours to restore
			}
			en.setFailed(id, false)
			hit++
		}
		return fmt.Sprintf("srlg-recover %s (%d links)", g.Name, hit), nil

	case MaintenanceStart:
		id := e.Link
		if id < 0 {
			id = en.pickFailableLink(rng)
			if id < 0 {
				return "maintenance: no drainable link", nil
			}
		}
		id = en.forwardID(id)
		if en.failed[id] {
			return fmt.Sprintf("maintenance %s (already down)", en.base.LinkName(id)), nil
		}
		en.setFailed(id, true)
		en.maintOrder = append(en.maintOrder, id)
		return fmt.Sprintf("maintenance %s", en.base.LinkName(id)), nil

	case MaintenanceEnd:
		id := e.Link
		if id < 0 {
			if len(en.maintOrder) == 0 {
				return "maintenance-end: nothing drained", nil
			}
			id = en.maintOrder[0]
		}
		id = en.forwardID(id)
		if !en.removeOrder(&en.maintOrder, id) {
			return fmt.Sprintf("maintenance-end %s (not drained)", en.base.LinkName(id)), nil
		}
		en.setFailed(id, false)
		return fmt.Sprintf("maintenance-end %s", en.base.LinkName(id)), nil

	case ControllerFail:
		if en.cl == nil {
			return fmt.Sprintf("controller-fail %d (no control plane)", e.Replica), nil
		}
		return en.cl.cp.FailController(e.Replica), nil

	case ControllerRecover:
		if en.cl == nil {
			return fmt.Sprintf("controller-recover %d (no control plane)", e.Replica), nil
		}
		return en.cl.cp.RecoverController(e.Replica), nil
	}
	return "", fmt.Errorf("unknown event kind %d", uint8(e.Kind))
}

// pickSRLG resolves an SRLG event's target: the named group, or — for an
// empty name — a random declared group with at least one live (wantDown
// false) or unplanned-down (wantDown true) member, enumerated in
// declaration order so the choice is deterministic.
func (en *engine) pickSRLG(name string, rng *rand.Rand, wantDown bool) (topology.SRLG, bool) {
	if name != "" {
		return en.base.SRLGByName(name) // existence pre-checked by reset
	}
	var cands []topology.SRLG
	for _, g := range en.base.SRLGs() {
		eligible := false
		for _, raw := range g.Links {
			id := en.forwardID(raw)
			if wantDown {
				eligible = en.failed[id] && en.inOrder(en.failedOrder, id)
			} else {
				eligible = !en.failed[id]
			}
			if eligible {
				break
			}
		}
		if eligible {
			cands = append(cands, g)
		}
	}
	if len(cands) == 0 {
		return topology.SRLG{}, false
	}
	return cands[rng.Intn(len(cands))], true
}

// inOrder reports whether id is in the order list.
func (en *engine) inOrder(order []topology.LinkID, id topology.LinkID) bool {
	for _, f := range order {
		if f == id {
			return true
		}
	}
	return false
}

// removeOrder deletes id from an order list, reporting whether it was
// present.
func (en *engine) removeOrder(order *[]topology.LinkID, id topology.LinkID) bool {
	for i, f := range *order {
		if f == id {
			*order = append((*order)[:i], (*order)[i+1:]...)
			return true
		}
	}
	return false
}

// forwardID canonicalizes a directed link ID to its physical link's
// forward direction (the lower ID of the pair).
func (en *engine) forwardID(id topology.LinkID) topology.LinkID {
	if r := en.base.Link(id).Reverse; r >= 0 && r < id {
		return r
	}
	return id
}

// setFailed marks both directions of a physical link.
func (en *engine) setFailed(id topology.LinkID, down bool) {
	en.failed[id] = down
	if r := en.base.Link(id).Reverse; r >= 0 {
		en.failed[r] = down
	}
}

// pickFailableLink chooses a random live physical link whose loss keeps
// the topology strongly connected, or -1 if none qualifies. Candidates
// are enumerated in ID order so the choice is deterministic.
func (en *engine) pickFailableLink(rng *rand.Rand) topology.LinkID {
	var cands []topology.LinkID
	for i := 0; i < en.base.NumLinks(); i++ {
		l := en.base.Link(topology.LinkID(i))
		if l.Reverse >= 0 && l.Reverse < l.ID {
			continue // reverse direction of an already-seen pair
		}
		if en.failed[l.ID] {
			continue
		}
		if en.connectedWithout(l.ID) {
			cands = append(cands, l.ID)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[rng.Intn(len(cands))]
}

// connectedWithout reports whether the topology stays strongly connected
// with the currently failed links plus the given physical link removed.
func (en *engine) connectedWithout(extra topology.LinkID) bool {
	skip := func(id topology.LinkID) bool {
		if en.failed[id] || id == extra {
			return true
		}
		if r := en.base.Link(extra).Reverse; r >= 0 && id == r {
			return true
		}
		return false
	}
	return en.reaches(en.outAdj, func(id topology.LinkID) topology.NodeID { return en.base.Link(id).To }, skip) &&
		en.reaches(en.inAdj, func(id topology.LinkID) topology.NodeID { return en.base.Link(id).From }, skip)
}

// reaches BFSes from node 0 over the adjacency and reports whether every
// node is reached.
func (en *engine) reaches(adj [][]topology.LinkID, next func(topology.LinkID) topology.NodeID, skip func(topology.LinkID) bool) bool {
	n := en.base.NumNodes()
	seen := make([]bool, n)
	seen[0] = true
	queue := []topology.NodeID{0}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range adj[u] {
			if skip(id) {
				continue
			}
			v := next(id)
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == n
}

// epochInstance is one epoch's materialized optimization input: the
// epoch topology and matrix, the ground-truth model over them, the stable
// scenario key of each dense matrix index, and the optimizer options with
// every out-of-service link folded into the forbidden mask.
type epochInstance struct {
	topo  *topology.Topology
	mat   *traffic.Matrix
	model *flowmodel.Model
	keys  []int64
	opts  core.Options
}

// downLinks lists the forward IDs of every out-of-service physical link
// (unplanned failures plus maintenance drains).
func (en *engine) downLinks() []topology.LinkID {
	out := make([]topology.LinkID, 0, len(en.failedOrder)+len(en.maintOrder))
	out = append(out, en.failedOrder...)
	return append(out, en.maintOrder...)
}

// materialize derives the epoch instance from the accumulated state:
// base capacities under the accumulated factors with out-of-service
// links at zero, the active aggregates under the demand state, and the
// epoch policy.
//
// The instance is the engine's, rebuilt by the next materialize: its
// matrix and model are one of the engine's two pairs, the one the last
// epoch did not use, rebuilt in place.
func (en *engine) materialize() (*epochInstance, error) {
	caps := slices.Grow(en.capBuf[:0], len(en.baseCaps))[:len(en.baseCaps)]
	en.capBuf = caps
	for i := range caps {
		caps[i] = 0
		if !en.failed[i] {
			caps[i] = unit.Bandwidth(float64(en.baseCaps[i]) * en.capFactor[i])
		}
	}
	topoE, err := en.base.WithCapacities(caps)
	if err != nil {
		return nil, err
	}

	// Epoch matrix: active aggregates under the demand state, with the
	// stable key of each dense matrix index recorded for remapping.
	aggs, keys := en.aggBuf[:0], en.keyBuf[:0]
	for _, a := range en.aggs {
		if !a.active {
			continue
		}
		flows := int(math.Round(float64(a.baseFlows) * en.scale * a.mult))
		if flows < 1 {
			flows = 1
		}
		aggs = append(aggs, traffic.Aggregate{
			Src: a.src, Dst: a.dst, Class: a.class, Flows: flows,
			Fn: a.fn, Weight: a.weight,
		})
		keys = append(keys, a.key)
	}
	en.aggBuf, en.keyBuf = aggs, keys // Rebuild copies; keys are read within the epoch only
	matE, model := &en.mats[en.matNext], &en.models[en.matNext]
	if freshOptimizer != nil {
		matE, model = new(traffic.Matrix), new(flowmodel.Model)
	}
	if err := traffic.Rebuild(matE, topoE, aggs); err != nil {
		return nil, err
	}
	if err := flowmodel.Rebuild(model, topoE, matE); err != nil {
		return nil, err
	}
	en.matNext ^= 1

	// Epoch policy: the user's policy with every out-of-service link
	// forbidden in both directions.
	coreOpts := en.opts.Core
	forb := pathgen.ForbidLinks(topoE, en.downLinks()...)
	for i, f := range coreOpts.Policy.ForbiddenLinks {
		if f {
			forb[i] = true
		}
	}
	coreOpts.Policy.ForbiddenLinks = forb
	en.inst = epochInstance{topo: topoE, mat: matE, model: model, keys: keys, opts: coreOpts}
	return &en.inst, nil
}

// repairInstalled remaps the carried installed allocation onto the epoch
// instance the optimizer is bound to via the stable keys (departed aggregates drop
// here) and repairs it into a valid warm start, recording the repair stats
// on er. Returns nil when nothing is installed yet (epoch 0).
func (en *engine) repairInstalled(inst *epochInstance, er *EpochResult) ([]flowmodel.Bundle, error) {
	if len(en.installed) == 0 {
		return nil, nil
	}
	clear(en.keyToID)
	for i, k := range inst.keys {
		en.keyToID[k] = traffic.AggregateID(i)
	}
	remapped := en.remapBuf[:0]
	for _, kb := range en.installed {
		id, ok := en.keyToID[kb.key]
		if !ok {
			er.RepairDropped++
			continue
		}
		remapped = append(remapped, flowmodel.Bundle{Agg: id, Flows: kb.flows, Edges: kb.edges})
	}
	en.remapBuf = remapped // the repair copies what it keeps
	repaired, stats, err := en.opt.RepairWarmStart(remapped)
	if err != nil {
		return nil, err
	}
	er.RepairDropped += stats.DroppedBundles
	er.RepairMovedFlows = stats.MovedFlows
	return repaired, nil
}

// recordChurn diffs the new allocation against the carried installed
// one over (aggregate key, path) pairs — the estimated churn metrics —
// then carries it forward as the installed state. Self-pairs drop here:
// they never hit the flow tables.
func (en *engine) recordChurn(er *EpochResult, inst *epochInstance, bundles []flowmodel.Bundle) {
	next := en.spare[:0]
	for _, b := range bundles {
		if len(b.Edges) == 0 {
			continue
		}
		next = append(next, keyedBundle{key: inst.keys[b.Agg], flows: b.Flows, edges: b.Edges})
	}
	sorted := append(en.spareSorted[:0], next...)
	slices.SortFunc(sorted, compareKeyed)
	er.PathsChanged, er.FlowsMoved, er.FlowMods = churn(en.installedSorted, sorted)
	en.spare, en.spareSorted = en.installed, en.installedSorted
	en.installed, en.installedSorted = next, sorted
}

// truthOn returns the replay's ground-truth arena, built on first use and
// bound to the epoch's model.
func (en *engine) truthOn(model *flowmodel.Model) *flowmodel.Eval {
	if en.truth == nil {
		en.truth = model.NewEval()
	}
	en.truth.Rebind(model)
	return en.truth
}

// runEpoch is the one epoch of every replay: materialize the epoch
// instance, repair the carried allocation onto it, re-optimize under the
// budget, record the row. With a control plane in the loop the closed
// loop's stages run around that skeleton — failover settle before it,
// repair push and measurement between repair and re-optimization (which
// then runs on the estimated matrix), transition pricing, install and
// ground-truth settle after it; without one they are skipped outright. A
// cancelled context aborts the epoch (its partial optimization is
// discarded) and surfaces the context's error.
func (en *engine) runEpoch(ctx context.Context, epoch int, events []string) (*EpochResult, error) {
	var epochStart time.Time
	var span telemetry.Span
	if en.tm != nil {
		epochStart = time.Now()
		span = en.span.Child(en.tracer.NewID())
	}
	cl := en.cl
	er := &EpochResult{Epoch: epoch, Events: events}
	if cl != nil {
		er.Installs = make([]InstallRecord, 0, 2) // the repair push and the re-optimized one
		en.labels.Phase(telemetry.PhaseSettle)
		// The epoch's events (just applied) may have killed or recovered
		// controller replicas: settle the failover before touching the
		// environment, while the fabric still holds the ground truth the
		// cached tables were installed under — the resync pushes must
		// validate against it.
		if err := cl.settle(ctx, er); err != nil {
			return nil, err
		}
	}
	en.labels.Phase(telemetry.PhaseRepair)
	inst, err := en.materialize()
	if err != nil {
		return nil, err
	}
	er.Aggregates = inst.mat.NumAggregates()
	er.Flows = inst.mat.TotalFlows()
	er.DemandKbps = float64(inst.mat.TotalDemand())
	er.FailedLinks = len(en.failedOrder)
	er.MaintenanceLinks = len(en.maintOrder)
	// model is the epoch's ground truth: what an open loop optimizes, and
	// what a closed loop only ever sees through counters.
	model := inst.model
	if freshOptimizer != nil {
		if en.opt, err = freshOptimizer(model, inst.opts); err != nil {
			return nil, err
		}
	}
	opt := en.opt
	if err := opt.Rebind(model, inst.opts); err != nil {
		return nil, err
	}
	repaired, err := en.repairInstalled(inst, er)
	if err != nil {
		return nil, err
	}
	carried := repaired != nil
	warm := carried && !en.opts.ColdStart
	coldCarried := carried && en.opts.ColdStart
	if cl != nil {
		if !carried {
			// Nothing installed yet: repairing an empty allocation yields
			// the all-on-lowest-delay placement, the state of a network
			// before FUBAR runs — and the loop's first wire install.
			if repaired, _, err = opt.RepairWarmStart(nil); err != nil {
				return nil, err
			}
		}
		if err := cl.pushRepair(ctx, epoch, inst, en.truthOn(model), repaired, er); err != nil {
			return nil, err
		}
		en.labels.Phase(telemetry.PhaseEstimate)
		estModel, err := cl.estimate(ctx, inst, er)
		if err != nil {
			return nil, err
		}
		// The stale evaluation pushRepair made stays: it ran on the true
		// matrix, which the optimizer, driven by the estimate from here
		// on, never sees.
		if err := opt.Rebind(estModel, inst.opts); err != nil {
			return nil, err
		}
	} else if coldCarried {
		// A cold run discards the repaired allocation, so its stale
		// utility must be evaluated explicitly.
		er.StaleUtility = en.truthOn(model).Evaluate(repaired).NetworkUtility
	}
	var initial []flowmodel.Bundle
	if warm {
		initial = repaired
		er.WarmStart = true
	}

	// The budget is a context deadline under the replay's context, so an
	// outer cancellation or deadline still wins.
	en.labels.Phase(telemetry.PhaseOptimize)
	runCtx := ctx
	if en.opts.Budget > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, en.opts.Budget)
		defer cancel()
	}
	if en.tm != nil {
		// The optimizer's spans name the epoch's as their parent.
		en.runCtx = telemetry.SpanContext{Context: runCtx, Span: span}
		runCtx = &en.runCtx
	}
	sol := &en.sol
	if freshOptimizer != nil {
		sol, err = opt.RunWarm(runCtx, initial)
	} else {
		err = opt.RunWarmInto(runCtx, initial, sol)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the replay itself was cancelled or timed out
	}
	if cl == nil && !coldCarried {
		// No explicit stale evaluation was needed: the optimizer's initial
		// evaluation IS the stale allocation (the warm start, or epoch 0's
		// shortest-path placement).
		er.StaleUtility = sol.InitialUtility
	}
	er.DeadlineMiss = sol.Stop == core.StopDeadline
	er.Utility = sol.Utility
	er.Steps = sol.Steps
	er.Escalations = sol.Escalations
	er.Stop = sol.Stop
	er.StopReason = sol.Stop.String()
	er.Elapsed = sol.Elapsed
	en.labels.Phase(telemetry.PhasePublish)
	if cl != nil {
		if err := cl.publish(ctx, epoch, inst, repaired, sol, er); err != nil {
			return nil, err
		}
	}
	// Estimated churn (bundle-list diff; a closed loop also has the counted
	// wire mods to compare it with), and carry the installed state forward.
	en.recordChurn(er, inst, sol.Bundles)
	en.recordEpochMetrics(er, epochStart, span)
	return er, nil
}

// recordEpochMetrics folds one finished epoch row into the live
// registry and emits its span event. No-op when telemetry is off; never
// reads back from the registry, so it cannot perturb the replay.
func (en *engine) recordEpochMetrics(er *EpochResult, start time.Time, span telemetry.Span) {
	if en.tm == nil {
		return
	}
	en.tm.Epochs.Inc()
	en.tm.EpochSeconds.Observe(time.Since(start).Seconds())
	if er.WarmStart {
		en.tm.WarmStarts.Inc()
	}
	en.tm.RepairDropped.Add(int64(er.RepairDropped))
	en.tm.RepairMovedFlows.Add(int64(er.RepairMovedFlows))
	en.tm.PathsChanged.Add(int64(er.PathsChanged))
	en.tm.FlowsMoved.Add(int64(er.FlowsMoved))
	en.tracer.Emit("scenario.epoch", start, span,
		telemetry.Int(telemetry.KeyEpoch, er.Epoch), telemetry.Float(telemetry.KeyUtility, er.Utility),
		telemetry.Int(telemetry.KeySteps, er.Steps), telemetry.Int(telemetry.KeyFlowMods, er.FlowMods),
		telemetry.Bool(telemetry.KeyWarmStart, er.WarmStart))
}

// compareKeyed orders installed entries by (aggregate key, path).
func compareKeyed(a, b keyedBundle) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return slices.Compare(a.edges, b.edges)
}

// churn diffs two installed allocations, each sorted by compareKeyed, over
// (aggregate key, path) pairs, an entry listed more than once counting as
// the sum of its flows. See EpochResult for the metric definitions.
func churn(prev, next []keyedBundle) (pathsChanged, flowsMoved, flowMods int) {
	// run sums the flows of the entries equal to bs[0] and returns the rest.
	run := func(bs []keyedBundle) (flows int, rest []keyedBundle) {
		n := 1
		for flows = bs[0].flows; n < len(bs) && compareKeyed(bs[n], bs[0]) == 0; n++ {
			flows += bs[n].flows
		}
		return flows, bs[n:]
	}
	for len(prev) > 0 || len(next) > 0 {
		// The lesser head is the pair to count: only in prev (c < 0), only
		// in next (c > 0), or in both.
		c := -1
		if len(prev) == 0 {
			c = 1
		} else if len(next) > 0 {
			c = compareKeyed(prev[0], next[0])
		}
		var of, nf int
		if c <= 0 {
			of, prev = run(prev)
		}
		if c >= 0 {
			nf, next = run(next)
		}
		if c < 0 { // torn down
			pathsChanged++
			flowMods++
			continue
		}
		if of == 0 {
			pathsChanged++
		}
		if nf != of {
			flowMods++
		}
		if nf > of {
			flowsMoved += nf - of
		}
	}
	return
}
