package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fubar/internal/flowmodel"
	"fubar/internal/traffic"
)

// HAStats is a snapshot of a replica set's high-availability counters.
type HAStats struct {
	// Failovers counts replica failures injected (or observed) via
	// Fail.
	Failovers int64
	// RPCRetries counts controller→agent RPC attempts retried after a
	// transient error, summed across replicas.
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
// agent homes on the first live seat in its order, and installs fan out
// to every live replica — each of which only reaches the switches homed
// on it. Killing a replica (Fail) bumps the shared election epoch and
// lets its orphaned switches re-home onto survivors, which resync their
// rule tables from the shared cache; Recover seats a fresh controller
// at the same rank. A one-seat set is the plain single-controller
// deployment: the set is the only way the package drives switches.
type ReplicaSet struct {
	cfg    ControllerConfig
	tables *tableCache
	epoch  *atomic.Uint64
	stats  *haStats
	notify *signal

	failovers atomic.Int64

	mu    sync.Mutex
	slots []replicaSlot
}

// NewReplicaSet listens n controller replicas on loopback ephemeral
// ports.
func NewReplicaSet(n int, cfg ControllerConfig) (*ReplicaSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ctrlplane: replica set needs n >= 1, got %d", n)
	}
	if cfg.Name == "" {
		cfg.Name = "fubar-controller"
	}
	rs := &ReplicaSet{
		cfg:    cfg,
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
	cfg := rs.cfg
	cfg.Name = fmt.Sprintf("%s-%d", rs.cfg.Name, i)
	return listen("127.0.0.1:0", cfg, rs.tables, rs.epoch, rs.stats, rs.notify)
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
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
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

// InstallAllocationDiff fans a differential install out to every live
// replica; each pushes only to the switches homed on it, and the
// outcomes merge into one network-wide count. Per-replica shards with
// no switches contribute nothing — only a set with no switches at all
// errors.
func (rs *ReplicaSet) InstallAllocationDiff(ctx context.Context, mat *traffic.Matrix, bundles []flowmodel.Bundle, generation uint64) (InstallOutcome, error) {
	ctrls := rs.live()
	out := InstallOutcome{Generation: generation}
	if len(ctrls) == 0 {
		return out, ErrClosed
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, len(ctrls))
	)
	for i, c := range ctrls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o, err := c.install(ctx, mat, bundles, generation)
			mu.Lock()
			out.merge(o)
			mu.Unlock()
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if out.Targeted == 0 {
		return out, fmt.Errorf("ctrlplane: no switches connected")
	}
	return out, nil
}

// CollectStats polls every switch across live replicas and merges the
// replies by datapath ID.
func (rs *ReplicaSet) CollectStats(ctx context.Context) (map[uint32]StatsReply, error) {
	ctrls := rs.live()
	if len(ctrls) == 0 {
		return nil, ErrClosed
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make([]error, len(ctrls))
	)
	out := make(map[uint32]StatsReply)
	for i, c := range ctrls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies, err := c.collectStats(ctx)
			mu.Lock()
			for id, r := range replies {
				out[id] = r
			}
			mu.Unlock()
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	if len(out) == 0 {
		return out, fmt.Errorf("ctrlplane: no switches connected")
	}
	return out, nil
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
