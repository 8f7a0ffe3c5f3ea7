package ctrlplane

import (
	"cmp"
	"context"
	"errors"
	"fmt"
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

// ReplicaSet is a fixed-size set of controller replicas sharing one
// differential-install cache, election epoch, and HA counters. Switch
// ownership is sharded deterministically by rendezvous hashing over
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
	cfg    ControllerConfig
	tables *tableCache
	epoch  *atomic.Uint64
	stats  *haStats
	notify *signal

	failovers atomic.Int64

	mu    sync.Mutex
	slots []replicaSlot
	spare []rpcTarget // the last finished round's targets, for the next to refill
}

// NewReplicaSet listens n controller replicas on loopback ephemeral
// ports.
func NewReplicaSet(n int, cfg ControllerConfig) (*ReplicaSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctrlplane: replica set needs n >= 1, got %d", n)
	}
	rs := &ReplicaSet{
		cfg:    cfg.withDefaults(),
		tables: newTableCache(),
		epoch:  new(atomic.Uint64),
		stats:  &haStats{},
		notify: newSignal(),
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

// listenSeat starts a controller for seat i with the shared state.
func (rs *ReplicaSet) listenSeat(i int) (*Controller, error) {
	return listen("127.0.0.1:0", fmt.Sprintf("%s-%d", controllerName, i), rs.cfg, rs.tables, rs.epoch, rs.stats, rs.notify)
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
		RPCRetries:   rs.stats.retries.Load(),
		ResyncsAcked: rs.stats.resyncsAcked.Load(),
	}
}

// live snapshots the live controllers in seat order.
func (rs *ReplicaSet) live() []*Controller {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*Controller, 0, len(rs.slots))
	for _, s := range rs.slots {
		if s.ctrl != nil {
			out = append(out, s.ctrl)
		}
	}
	return out
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
	n := 0
	for _, c := range rs.live() {
		n += c.SwitchCount()
	}
	return n
}

// WaitForSwitchesCtx blocks until n switches are registered across the
// set, every live seat is accepting, or ctx is done.
func (rs *ReplicaSet) WaitForSwitchesCtx(ctx context.Context, n int) error {
	for {
		ch := rs.notify.wait()
		got := rs.SwitchCount()
		if got >= n {
			return nil
		}
		if rs.LiveReplicas() == 0 {
			return fmt.Errorf("%w: %d/%d switches", ErrClosed, got, n)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ctrlplane: %d/%d switches: %w", got, n, ctx.Err())
		case <-ch:
		}
	}
}

// QuiesceResyncs blocks until no rule-table handoff is in flight
// anywhere in the set. A closed-loop driver calls this before
// reconciling wire counts against the fabric ledger, so resync
// FlowMods are fully settled rather than racing the check.
func (rs *ReplicaSet) QuiesceResyncs(ctx context.Context) error {
	for {
		ch := rs.notify.wait()
		if rs.stats.resyncInflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ctrlplane: resyncs still in flight: %w", ctx.Err())
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
	perSwitch := allocationTables(mat, bundles)
	epoch := rs.epoch.Load()
	targets, homed, errs := rs.targets(MsgFlowModAck, func(_ *Controller, id uint32) (Message, uint64) {
		if last, ok := rs.tables.get(id); ok && rulesEqual(perSwitch[id], last) {
			return nil, 0
		}
		return FlowMod{Generation: generation, Epoch: epoch, Rules: perSwitch[id]}, generation
	})
	defer rs.recycle(targets)
	if err := runRound(ctx, targets, retryAttempts, rs.cfg.RequestTimeout, rs.stats); err != nil {
		errs = append(errs, err)
	}
	out := InstallOutcome{Generation: generation, Targeted: homed, FlowMods: len(targets)}
	for _, t := range targets {
		out.Rules += len(perSwitch[t.id])
		if t.reply != nil {
			out.Acks++
			rs.tables.set(t.id, perSwitch[t.id])
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
// and merges the replies by datapath ID.
func (rs *ReplicaSet) CollectStats(ctx context.Context) (map[uint32]StatsReply, error) {
	targets, _, errs := rs.targets(MsgStatsReply, func(c *Controller, _ uint32) (Message, uint64) {
		token := c.nextToken()
		return StatsReq{Token: token}, token
	})
	defer rs.recycle(targets)
	if err := runRound(ctx, targets, retryAttempts, rs.cfg.RequestTimeout, rs.stats); err != nil {
		errs = append(errs, err)
	}
	out := make(map[uint32]StatsReply, len(targets))
	for _, t := range targets {
		if sr, ok := t.reply.(StatsReply); ok {
			out[t.id] = sr
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

// targets builds a round's targets across the live seats: one for every
// homed switch that req gives a request (nil skips it), with the token its
// reply carries, answered by a want reply. It also reports how many
// switches are homed, and ErrClosed for a seat found closed. The slice
// is the last round's, refilled; the caller hands it back with recycle.
func (rs *ReplicaSet) targets(want MsgType, req func(c *Controller, id uint32) (Message, uint64)) (ts []rpcTarget, homed int, errs []error) {
	ctrls := rs.live()
	if len(ctrls) == 0 {
		return nil, 0, []error{ErrClosed}
	}
	rs.mu.Lock()
	ts, rs.spare = rs.spare[:0], nil // a concurrent round grows its own
	rs.mu.Unlock()
	for _, c := range ctrls {
		c.mu.Lock()
		if c.closed {
			errs = append(errs, ErrClosed)
		} else {
			homed += len(c.switches)
			for _, sw := range c.switches {
				if m, token := req(c, sw.id); m != nil {
					ts = append(ts, rpcTarget{c: c, id: sw.id, name: sw.name, req: m, token: token, want: want})
				}
			}
		}
		c.mu.Unlock()
	}
	return ts, homed, errs
}

// recycle keeps a finished round's targets for the next round, dropping
// the requests and replies they hold. Nothing may use ts afterwards.
func (rs *ReplicaSet) recycle(ts []rpcTarget) {
	clear(ts)
	rs.mu.Lock()
	rs.spare = ts
	rs.mu.Unlock()
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

	reply Message // the answer, once in
	err   error   // the last attempt's error
	// open marks a target still to be sent: not yet answered, and its
	// last attempt's error, if any, retryable.
	open bool
	sw   *swConn // connection of the attempt in flight; nil when none
}

// runRound runs one RPC round over targets: every controller→switch
// request — stats polls, installs, resyncs — goes through it. A pass
// writes every open target's request back to back, then collects the
// replies off one channel, matched by connection and token, under one
// deadline: timeout, or ctx's when that is tighter. Targets whose attempt
// failed retryably go again together as a further pass after the
// backoff, for at most attempts passes; each retried target counts once
// in stats.retries. A reply, a final error or a dead ctx ends a target's
// part of the round. The round starts no goroutine and arms one timer.
// It returns the error of every target left unanswered, naming its
// switch.
func runRound(ctx context.Context, targets []rpcTarget, attempts int, timeout time.Duration, stats *haStats) error {
	for i := range targets {
		targets[i].open = true
	}
	// Each registration of a token is answered at most once, so room for
	// every attempt of every target never blocks a connection's read loop.
	replies := make(chan reply, attempts*len(targets))
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	backoff := retryBaseBackoff
round:
	for attempt := 1; ; attempt++ {
		deadline := time.Now().Add(timeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		retry := runPass(ctx, targets, replies, timer, deadline)
		if retry == 0 || attempt >= attempts || ctx.Err() != nil {
			break
		}
		stats.retries.Add(int64(retry))
		// Reset never leaves a stale expiry in timer.C (Go ≥ 1.23 timers).
		timer.Reset(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			break round
		}
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
		timer.Reset(timeout)
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
// done. It returns how many targets stay open for another pass.
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
	for waiting > 0 {
		select {
		case r := <-replies:
			t := inFlight(targets, r)
			if t == nil {
				continue // answer to an attempt the round gave up on
			}
			waiting--
			t.sw = nil
			msg, err := r.conn.answer(r.msg)
			if err == nil {
				if msg.Type() == t.want {
					t.reply = msg
				} else {
					err = fmt.Errorf("got %v, want %v", msg.Type(), t.want)
				}
			}
			t.settle(err)
		case <-timer.C:
			expire(ctx, targets)
			waiting = 0
		case <-ctx.Done():
			expire(ctx, targets)
			waiting = 0
		}
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
func (t *rpcTarget) post(ch chan<- reply, deadline time.Time) error {
	sw, err := t.c.lookup(t.id)
	if err != nil {
		return err
	}
	if err := sw.post(t.token, t.req, ch, deadline); err != nil {
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
// or the caller's context ends the pass.
func expire(ctx context.Context, targets []rpcTarget) {
	for i := range targets {
		t := &targets[i]
		if t.sw == nil {
			continue
		}
		t.sw.withdraw(t.token)
		if err := ctx.Err(); err != nil {
			t.settle(err) // the caller's context won, not the pass deadline
		} else {
			t.settle(t.sw.timedOut(t.req.Type()))
		}
		t.sw = nil
	}
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
