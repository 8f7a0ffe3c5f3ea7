package ctrlplane

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/traffic"
)

// HAStats is a snapshot of a replica set's high-availability counters.
type HAStats struct {
	// Failovers counts replica failures injected (or observed) via
	// Fail.
	Failovers int64
	// RPCRetries counts controller→agent RPC attempts retried after a
	// transient error: one per switch per retried pass of an RPC round
	// (stats poll or install), summed across replicas.
	RPCRetries int64
	// ResyncsAcked counts verified rule-table handoffs: orphaned
	// switches whose cached table a surviving replica re-pushed and got
	// acked.
	ResyncsAcked int64
}

// replicaSlot is one seat in the set. The seat's index — not the
// controller instance occupying it — is what rendezvous hashing ranks,
// so ownership assignments survive a fail/recover cycle of the same
// seat.
type replicaSlot struct {
	ctrl *Controller // nil while failed
	addr string      // listen address of the current (or last) controller
}

// ReplicaSet is a fixed-size set of controller replicas and the state
// they share: one differential-install cache, election epoch, set of HA
// counters and notify signal, which every seat reads through its set.
// Switch ownership is sharded deterministically by rendezvous hashing over
// (seat, datapath ID): the set's DialOrder ranks seats per switch, each
// agent homes on the first live seat in its order, and an install or
// stats round writes to every switch homed on a live replica, each over
// its own seat's connection. Killing a replica (Fail) bumps the shared
// election epoch and lets its orphaned switches re-home onto survivors,
// which resync their rule tables from the shared cache; Recover seats a
// fresh controller at the same rank. A one-seat set is the plain
// single-controller deployment: the set is the only way the package
// drives switches.
type ReplicaSet struct {
	cfg    Config
	tables tableCache
	epoch  atomic.Uint64 // election epoch stamped on FlowMods
	notify signal        // registration and resync state changes

	// The HA counters HAStats snapshots, and the handoffs still awaiting
	// their ack, which Settle waits out.
	failovers      atomic.Int64
	retries        atomic.Int64
	resyncsAcked   atomic.Int64
	resyncInflight atomic.Int64

	// mu guards the seats; a seat's own lock is taken under it, never the
	// other way round.
	mu    sync.Mutex
	slots []replicaSlot
	spare *round // the last finished round's storage, for the next to refill
}

// NewReplicaSet listens n controller replicas on loopback ephemeral
// ports.
func NewReplicaSet(n int, cfg Config) (*ReplicaSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctrlplane: replica set needs n >= 1, got %d", n)
	}
	rs := &ReplicaSet{
		cfg:    cfg.withDefaults(),
		tables: tableCache{tables: make(map[uint32]*cachedTable)},
		notify: signal{ch: make(chan struct{})},
		slots:  make([]replicaSlot, n),
	}
	for i := range rs.slots {
		ctrl, err := rs.listenSeat(i)
		if err != nil {
			rs.Close()
			return nil, err
		}
		rs.slots[i] = replicaSlot{ctrl: ctrl, addr: ctrl.Addr().String()}
	}
	return rs, nil
}

// listenSeat starts seat i's controller on a loopback ephemeral port.
func (rs *ReplicaSet) listenSeat(i int) (*Controller, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: listen: %w", err)
	}
	c := &Controller{
		name:     fmt.Sprintf("%s-%d", controllerName, i),
		set:      rs,
		ln:       ln,
		switches: make(map[uint32]*swConn),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Size returns the number of seats (live or not).
func (rs *ReplicaSet) Size() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.slots)
}

// LiveReplicas returns the number of seats currently holding a live
// controller.
func (rs *ReplicaSet) LiveReplicas() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, s := range rs.slots {
		if s.ctrl != nil {
			n++
		}
	}
	return n
}

// Epoch returns the current election epoch.
func (rs *ReplicaSet) Epoch() uint64 { return rs.epoch.Load() }

// Stats snapshots the set's HA counters.
func (rs *ReplicaSet) Stats() HAStats {
	return HAStats{
		Failovers:    rs.failovers.Load(),
		RPCRetries:   rs.retries.Load(),
		ResyncsAcked: rs.resyncsAcked.Load(),
	}
}

// live appends the live controllers, in seat order, to dst.
func (rs *ReplicaSet) live(dst []*Controller) []*Controller {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, s := range rs.slots {
		if s.ctrl != nil {
			dst = append(dst, s.ctrl)
		}
	}
	return dst
}

// mix64 is splitmix64's finalizer — the rendezvous hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rendezvousSalt is fixed (not scenario-seeded): a replica set is
// constructed before any scenario is known, and ownership only needs to
// be deterministic and uniform, not unpredictable.
const rendezvousSalt = 0xf0ba4c0de

// seatOrder ranks all seats for one switch by descending rendezvous
// score. The first live seat in this order is the switch's owner.
func (rs *ReplicaSet) seatOrder(datapathID uint32) []int {
	rs.mu.Lock()
	n := len(rs.slots)
	rs.mu.Unlock()
	order := make([]int, n)
	scores := make([]uint64, n)
	for i := range order {
		order[i] = i
		scores[i] = mix64(rendezvousSalt ^ uint64(datapathID)<<16 ^ uint64(i))
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// DialOrder implements DialDirectory: the switch's rendezvous seat
// order, restricted to live seats. Agents homing on the first address
// is exactly the ownership sharding — no separate assignment table
// exists or is needed.
func (rs *ReplicaSet) DialOrder(datapathID uint32) []string {
	order := rs.seatOrder(datapathID)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	addrs := make([]string, 0, len(order))
	for _, i := range order {
		if rs.slots[i].ctrl != nil {
			addrs = append(addrs, rs.slots[i].addr)
		}
	}
	return addrs
}

// Fail kills the replica in seat i: its listener and switch connections
// close, the shared election epoch advances (fencing any of its writes
// still in flight), and its switches re-home onto survivors. Killing
// the last live replica is refused — an empty set cannot fail over, it
// can only black-hole.
func (rs *ReplicaSet) Fail(i int) error {
	rs.mu.Lock()
	if i < 0 || i >= len(rs.slots) {
		rs.mu.Unlock()
		return fmt.Errorf("ctrlplane: no replica seat %d", i)
	}
	if rs.slots[i].ctrl == nil {
		rs.mu.Unlock()
		return fmt.Errorf("ctrlplane: replica %d already failed", i)
	}
	liveCount := 0
	for _, s := range rs.slots {
		if s.ctrl != nil {
			liveCount++
		}
	}
	if liveCount == 1 {
		rs.mu.Unlock()
		return fmt.Errorf("ctrlplane: refusing to fail replica %d: it is the last one live", i)
	}
	ctrl := rs.slots[i].ctrl
	rs.slots[i].ctrl = nil
	rs.mu.Unlock()

	rs.epoch.Add(1)
	rs.failovers.Add(1)
	err := ctrl.Close()
	rs.notify.broadcast()
	return err
}

// Recover seats a fresh controller at seat i (on a new port — the
// directory indirection means agents never memorize addresses). The
// seat's rendezvous rank is unchanged, so switches that prefer it
// re-home onto it at their next redial or reconnect.
func (rs *ReplicaSet) Recover(i int) error {
	rs.mu.Lock()
	if i < 0 || i >= len(rs.slots) {
		rs.mu.Unlock()
		return fmt.Errorf("ctrlplane: no replica seat %d", i)
	}
	if rs.slots[i].ctrl != nil {
		rs.mu.Unlock()
		return fmt.Errorf("ctrlplane: replica %d already live", i)
	}
	rs.mu.Unlock()

	ctrl, err := rs.listenSeat(i)
	if err != nil {
		return err
	}
	rs.mu.Lock()
	if rs.slots[i].ctrl != nil { // lost a race with another Recover
		rs.mu.Unlock()
		ctrl.Close()
		return fmt.Errorf("ctrlplane: replica %d already live", i)
	}
	rs.slots[i] = replicaSlot{ctrl: ctrl, addr: ctrl.Addr().String()}
	rs.mu.Unlock()
	rs.notify.broadcast()
	return nil
}

// SwitchCount sums registered switches across live replicas.
func (rs *ReplicaSet) SwitchCount() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	n := 0
	for _, s := range rs.slots {
		if s.ctrl != nil {
			n += s.ctrl.SwitchCount()
		}
	}
	return n
}

// Settle blocks until switches switches are homed on live seats and no
// rule-table handoff is in flight anywhere in the set, or ctx is done. A
// closed-loop driver calls it before reconciling wire counts against the
// fabric ledger, so resync FlowMods are fully settled rather than racing
// the check. Both conditions are read after taking the notify channel, the
// switches first: a handoff counts as in flight before its switch is
// visible, so a switch seen homed has its handoff seen too. A set already
// settled returns nil at once, whatever ctx's state, and allocates
// nothing.
func (rs *ReplicaSet) Settle(ctx context.Context, switches int) error {
	for {
		ch := rs.notify.wait()
		got := rs.SwitchCount()
		inflight := rs.resyncInflight.Load()
		if got >= switches && inflight == 0 {
			return nil
		}
		if rs.LiveReplicas() == 0 {
			return fmt.Errorf("%w: %d/%d switches", ErrClosed, got, switches)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ctrlplane: %d/%d switches, %d handoffs in flight: %w", got, switches, inflight, ctx.Err())
		case <-ch:
		}
	}
}

// InstallAllocationDiff pushes an allocation differentially in one RPC
// round across every live seat: only switches whose desired rule table
// differs from the set's last acked push receive a FlowMod, tokened by
// its generation (switch tables are physical state — an unchanged table
// needs no message). An acked table becomes the switch's cached one; any
// other outcome drops the entry, so the next install pushes the full
// table rather than diff against an unknown one. The outcome counts the
// FlowMods actually written and acked, which is how a closed-loop replay
// measures real install churn rather than estimating it from bundle
// diffs. Only a set with no switches at all errors for want of one.
func (rs *ReplicaSet) InstallAllocationDiff(ctx context.Context, mat *traffic.Matrix, bundles []flowmodel.Bundle, generation uint64) (InstallOutcome, error) {
	r := rs.round()
	defer rs.recycle(r)
	r.tables.build(mat, bundles)
	epoch := rs.epoch.Load()
	homed, errs := rs.targets(r, MsgFlowModAck, func(_ *Controller, id uint32) (uint64, bool) {
		return generation, !rs.tables.equal(id, r.tables.table(id))
	})
	for i := range r.targets {
		t := &r.targets[i]
		t.mod = FlowMod{Generation: generation, Epoch: epoch, Rules: r.tables.table(t.id)}
		t.req = &t.mod
	}
	if err := r.run(ctx, retryAttempts, rs); err != nil {
		errs = append(errs, err)
	}
	out := InstallOutcome{Generation: generation, Targeted: homed, FlowMods: len(r.targets)}
	for _, t := range r.targets {
		out.Rules += len(t.mod.Rules)
		if t.ok {
			out.Acks++
			rs.tables.set(t.id, t.mod.Rules)
		} else {
			rs.tables.drop(t.id)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if out.Targeted == 0 {
		return out, fmt.Errorf("ctrlplane: no switches connected")
	}
	return out, nil
}

// CollectStats polls every switch across live replicas in one RPC round
// and merges the replies by datapath ID. The map and the replies' counters
// are the set's, rewritten by its next CollectStats: a caller that keeps
// them longer copies them.
func (rs *ReplicaSet) CollectStats(ctx context.Context) (map[uint32]StatsReply, error) {
	r := rs.round()
	defer rs.recycle(r)
	_, errs := rs.targets(r, MsgStatsReply, func(c *Controller, _ uint32) (uint64, bool) {
		return c.nextToken(), true
	})
	for i := range r.targets {
		t := &r.targets[i]
		t.poll = StatsReq{Token: t.token}
		t.req = &t.poll
	}
	if err := r.run(ctx, retryAttempts, rs); err != nil {
		errs = append(errs, err)
	}
	if r.replies == nil {
		r.replies = make(map[uint32]StatsReply, len(r.targets))
	}
	out := r.replies
	clear(out)
	for _, t := range r.targets {
		if t.ok {
			out[t.id] = t.stats
		}
	}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if len(out) == 0 {
		return out, fmt.Errorf("ctrlplane: no switches connected")
	}
	return out, nil
}

// round is the storage of one RPC round, kept by the set from round to
// round (ReplicaSet.spare): the live seats, the targets with the replies
// decoded into them, the channel the replies arrive on and the timer every
// pass arms, the install tables and CollectStats' reply map. A round that
// finds the spare taken — a concurrent one — builds its own.
type round struct {
	ctrls   []*Controller
	targets []rpcTarget
	ch      chan reply
	timer   *time.Timer
	tables  tableBuilder
	replies map[uint32]StatsReply
}

// round takes the set's spare round storage, or makes new.
func (rs *ReplicaSet) round() *round {
	rs.mu.Lock()
	r := rs.spare
	rs.spare = nil
	rs.mu.Unlock()
	if r == nil {
		r = new(round)
	}
	return r
}

// recycle keeps a finished round's storage for the next round. Nothing
// may use r afterwards but what CollectStats handed out.
func (rs *ReplicaSet) recycle(r *round) {
	rs.mu.Lock()
	rs.spare = r
	rs.mu.Unlock()
}

// targets fills r's targets across the live seats: one for every homed
// switch that send gives a request (with the token its reply carries),
// answered by a want reply; the caller then sets each target's request. It
// reports how many switches are homed, and ErrClosed for a seat found
// closed.
func (rs *ReplicaSet) targets(r *round, want MsgType, send func(c *Controller, id uint32) (uint64, bool)) (homed int, errs []error) {
	r.ctrls = rs.live(r.ctrls[:0])
	r.targets = r.targets[:0]
	if len(r.ctrls) == 0 {
		return 0, []error{ErrClosed}
	}
	for _, c := range r.ctrls {
		c.mu.Lock()
		if c.closed {
			errs = append(errs, ErrClosed)
		} else {
			homed += len(c.switches)
			for _, sw := range c.switches {
				token, ok := send(c, sw.id)
				if !ok {
					continue
				}
				var kept StatsReply // the counters an earlier round decoded into the slot
				if n := len(r.targets); n < cap(r.targets) {
					kept = r.targets[:n+1][n].stats
				}
				r.targets = append(r.targets, rpcTarget{c: c, id: sw.id, name: sw.name, token: token, want: want, stats: kept})
			}
		}
		c.mu.Unlock()
	}
	return homed, errs
}

// rpcTarget is one switch's slot in an RPC round: the request every
// attempt writes, the token its reply carries, and the reply type that
// answers it.
type rpcTarget struct {
	c     *Controller
	id    uint32
	name  string
	req   Message
	token uint64  // a FlowMod's Generation, a StatsReq's or Echo's Token
	want  MsgType // the reply type that answers req

	// The requests a set's rounds send, for req to point at.
	mod  FlowMod
	poll StatsReq

	ok    bool       // answered by a want reply
	stats StatsReply // a StatsReply answer, decoded in by the read loop
	err   error      // the last attempt's error
	// open marks a target still to be sent: not yet answered, and its
	// last attempt's error, if any, retryable.
	open bool
	sw   *swConn // connection of the attempt in flight; nil when none
}

// run runs one RPC round over r's targets: every controller→switch
// request — stats polls, installs, resyncs — goes through it. A pass
// writes every open target's request back to back, then collects the
// replies off one channel, matched by connection and token, under one
// deadline: rs's RequestTimeout, or ctx's when that is tighter. Targets
// whose attempt failed retryably go again together as a further pass
// after the backoff, for at most attempts passes; each retried target
// counts once in rs.retries. A reply, a final error or a dead ctx ends a target's
// part of the round. The round starts no goroutine, and arms the one timer
// and channel r keeps. It returns the error of every target left
// unanswered, naming its switch.
func (r *round) run(ctx context.Context, attempts int, rs *ReplicaSet) error {
	timeout := rs.cfg.RequestTimeout
	targets := r.targets
	for i := range targets {
		t := &targets[i]
		t.ok, t.err, t.open, t.sw = false, nil, true, nil
	}
	// A pass receives every reply it registered before it ends, so room
	// for one per target never blocks a connection's read loop.
	if cap(r.ch) < len(targets) {
		r.ch = make(chan reply, len(targets))
	}
	if r.timer == nil {
		r.timer = time.NewTimer(timeout)
	} else {
		r.timer.Reset(timeout)
	}
	defer r.timer.Stop()
	backoff := retryBaseBackoff
round:
	for attempt := 1; ; attempt++ {
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		retry := runPass(ctx, targets, r.ch, r.timer, deadline)
		if retry == 0 || attempt >= attempts || ctx.Err() != nil {
			break
		}
		rs.retries.Add(int64(retry))
		// Reset never leaves a stale expiry in timer.C (Go ≥ 1.23 timers).
		r.timer.Reset(backoff)
		select {
		case <-r.timer.C:
		case <-ctx.Done():
			break round
		}
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
		r.timer.Reset(timeout)
	}
	var errs []error
	for _, t := range targets {
		if t.err != nil {
			errs = append(errs, fmt.Errorf("switch %s(%d): %w", t.name, t.id, t.err))
		}
	}
	return errors.Join(errs...)
}

// runPass is one pass of a round: every open target's request back to
// back, then the replies, until every one is in, timer fires or ctx is
// done. Once the pass gives up, it still receives every reply whose token
// a read loop had claimed, so none arrives after the round. It returns how
// many targets stay open for another pass.
func runPass(ctx context.Context, targets []rpcTarget, replies chan reply, timer *time.Timer, deadline time.Time) int {
	waiting := 0
	for i := range targets {
		t := &targets[i]
		if !t.open {
			continue
		}
		if err := t.post(replies, deadline); err != nil {
			t.settle(err)
			continue
		}
		waiting++
	}
	expired := false
	for waiting > 0 {
		var r reply
		if expired {
			r = <-replies
		} else {
			select {
			case r = <-replies:
			case <-timer.C:
				waiting, expired = expire(ctx, targets), true
				continue
			case <-ctx.Done():
				waiting, expired = expire(ctx, targets), true
				continue
			}
		}
		t := inFlight(targets, r)
		if t == nil {
			continue // answer to an attempt the round gave up on
		}
		waiting--
		t.sw = nil
		typ, err := r.conn.answer(r)
		if err == nil {
			if typ == t.want {
				t.ok = true
			} else {
				err = fmt.Errorf("got %v, want %v", typ, t.want)
			}
		}
		t.settle(err)
	}
	open := 0
	for _, t := range targets {
		if t.open {
			open++
		}
	}
	return open
}

// post re-resolves the target's switch — the agent may have reconnected —
// and writes it the request, answering on ch.
func (t *rpcTarget) post(ch chan reply, deadline time.Time) error {
	sw, err := t.c.lookup(t.id)
	if err != nil {
		return err
	}
	w := waiter{ch: ch}
	if t.want == MsgStatsReply {
		w.into = &t.stats
	}
	if err := sw.post(t.token, t.req, w, deadline); err != nil {
		return err
	}
	t.sw = sw
	return nil
}

// settle records an attempt's outcome: a reply or a final error closes
// the target, a retryable error leaves it open.
func (t *rpcTarget) settle(err error) {
	t.err = err
	t.open = err != nil && retryable(err)
}

// inFlight finds the target whose attempt r answers, or nil.
func inFlight(targets []rpcTarget, r reply) *rpcTarget {
	for i := range targets {
		if t := &targets[i]; t.sw == r.conn && t.token == r.token {
			return t
		}
	}
	return nil
}

// expire withdraws every attempt still in flight when the pass deadline
// or the caller's context ends the pass, and returns how many it could
// not: their tokens were claimed, their replies already on the way, and
// they stay in flight until those arrive.
func expire(ctx context.Context, targets []rpcTarget) (claimed int) {
	for i := range targets {
		t := &targets[i]
		if t.sw == nil {
			continue
		}
		if !t.sw.withdraw(t.token) {
			claimed++
			continue
		}
		if err := ctx.Err(); err != nil {
			t.settle(err) // the caller's context won, not the pass deadline
		} else {
			t.settle(t.sw.timedOut(t.req.Type()))
		}
		t.sw = nil
	}
	return claimed
}

// Close shuts down every live replica.
func (rs *ReplicaSet) Close() error {
	rs.mu.Lock()
	ctrls := make([]*Controller, 0, len(rs.slots))
	for i := range rs.slots {
		if rs.slots[i].ctrl != nil {
			ctrls = append(ctrls, rs.slots[i].ctrl)
			rs.slots[i].ctrl = nil
		}
	}
	rs.mu.Unlock()
	var errs []error
	for _, c := range ctrls {
		errs = append(errs, c.Close())
	}
	rs.notify.broadcast()
	return errors.Join(errs...)
}
