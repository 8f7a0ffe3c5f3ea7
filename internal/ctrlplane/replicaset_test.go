package ctrlplane

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// recDatapath records every install and the current table.
type recDatapath struct {
	mu       sync.Mutex
	installs int
	rules    []Rule
}

func (d *recDatapath) InstallRules(_ uint64, rules []Rule) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.installs++
	d.rules = rules
	return nil
}

func (d *recDatapath) ReadCounters(batch *CounterBatch) error {
	*batch = CounterBatch{Epoch: 1, Duration: time.Second, Counters: batch.Counters[:0]}
	return nil
}

func (d *recDatapath) table() []Rule {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rules
}

func (d *recDatapath) installCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.installs
}

// fastAgentCfg bounds the handshake at a second so a failover test that
// dials a dying seat moves on quickly.
func fastAgentCfg() AgentConfig {
	return AgentConfig{HandshakeTimeout: time.Second}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReplicaSetShardingAndDialOrder(t *testing.T) {
	rs, err := NewReplicaSet(3, ControllerConfig{})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer rs.Close()

	// Dial order is deterministic and covers every live seat.
	for id := uint32(0); id < 8; id++ {
		a := rs.DialOrder(id)
		b := rs.DialOrder(id)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("DialOrder(%d) unstable: %v vs %v", id, a, b)
		}
		if len(a) != 3 {
			t.Fatalf("DialOrder(%d) has %d addrs, want 3", id, len(a))
		}
	}
	// Rendezvous spreads ownership: over enough switches, more than one
	// seat must come first.
	firsts := map[string]bool{}
	for id := uint32(0); id < 64; id++ {
		firsts[rs.DialOrder(id)[0]] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("rendezvous ownership degenerate: all 64 switches prefer one seat")
	}
}

func TestReplicaSetFailoverResyncsOrphans(t *testing.T) {
	rs, err := NewReplicaSet(3, ControllerConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer rs.Close()

	const nSwitches = 6
	dps := make([]*recDatapath, nSwitches)
	for id := 0; id < nSwitches; id++ {
		dps[id] = &recDatapath{}
		ma, err := NewManagedAgent(uint32(id), "sw", dps[id], rs, fastAgentCfg())
		if err != nil {
			t.Fatalf("NewManagedAgent %d: %v", id, err)
		}
		defer ma.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rs.WaitForSwitchesCtx(ctx, nSwitches); err != nil {
		t.Fatalf("WaitForSwitchesCtx: %v", err)
	}

	// Hand every switch a cached table, as if a previous install pushed
	// it, then kill a seat that owns at least one switch.
	want := make(map[uint32][]Rule)
	for id := uint32(0); id < nSwitches; id++ {
		want[id] = []Rule{{Agg: int32(id), Flows: 2, Links: []uint32{uint32(id)}}}
		rs.tables.set(id, want[id])
	}
	victim := -1
	orphans := []uint32{}
	for seat := 0; seat < 3; seat++ {
		orphans = orphans[:0]
		for id := uint32(0); id < nSwitches; id++ {
			if rs.seatOrder(id)[0] == seat {
				orphans = append(orphans, id)
			}
		}
		if len(orphans) > 0 {
			victim = seat
			break
		}
	}
	if victim < 0 {
		t.Fatal("no seat owns any switch")
	}
	if err := rs.Fail(victim); err != nil {
		t.Fatalf("Fail(%d): %v", victim, err)
	}
	if got := rs.Epoch(); got != 1 {
		t.Fatalf("election epoch %d after one failover, want 1", got)
	}

	// Orphans re-home onto survivors and get their tables resynced from
	// the shared cache — the verified handoff.
	waitCond(t, "orphans to re-home", func() bool { return rs.SwitchCount() == nSwitches })
	qctx, qcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer qcancel()
	if err := rs.QuiesceResyncs(qctx); err != nil {
		t.Fatalf("QuiesceResyncs: %v", err)
	}
	for _, id := range orphans {
		waitCond(t, "resync to land", func() bool {
			return reflect.DeepEqual(dps[id].table(), want[id])
		})
	}
	st := rs.Stats()
	if st.Failovers != 1 {
		t.Fatalf("Failovers = %d, want 1", st.Failovers)
	}
	if st.ResyncsAcked != int64(len(orphans)) {
		t.Fatalf("ResyncsAcked = %d, want %d", st.ResyncsAcked, len(orphans))
	}
	if rs.LiveReplicas() != 2 {
		t.Fatalf("LiveReplicas = %d, want 2", rs.LiveReplicas())
	}

	// The recovered seat comes back at the same rank; existing
	// connections stay where they are.
	if err := rs.Recover(victim); err != nil {
		t.Fatalf("Recover(%d): %v", victim, err)
	}
	if rs.LiveReplicas() != 3 {
		t.Fatalf("LiveReplicas = %d after recover, want 3", rs.LiveReplicas())
	}
}

// TestReplicaSetResyncCountedBeforeRegistration: a switch re-registering
// with a cached table has its handoff counted in flight before it is
// visible, so once every switch is homed and QuiesceResyncs returns — a
// closed loop's settle — the table has landed. Registration is held on
// the seat's lock to open the window deterministically.
func TestReplicaSetResyncCountedBeforeRegistration(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{})
	rs.tables.set(3, []Rule{{Agg: 3, Flows: 1}})
	dp := &recDatapath{}
	seat.mu.Lock()
	managedAgent(t, rs, 3, "sw3", dp)
	deadline := time.Now().Add(2 * time.Second)
	for rs.stats.resyncInflight.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	inflight, visible := rs.stats.resyncInflight.Load(), len(seat.switches)
	seat.mu.Unlock()
	if inflight != 1 || visible != 0 {
		t.Fatalf("before registration: %d handoffs in flight, %d switches visible; want 1 and 0", inflight, visible)
	}
	waitSwitches(t, rs, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rs.QuiesceResyncs(ctx); err != nil {
		t.Fatalf("QuiesceResyncs: %v", err)
	}
	if got := dp.installCount(); got != 1 {
		t.Fatalf("settled with %d handoff installs on the switch, want 1", got)
	}
}

func TestReplicaSetRefusesFailingLastReplica(t *testing.T) {
	rs, err := NewReplicaSet(2, ControllerConfig{})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer rs.Close()
	if err := rs.Fail(0); err != nil {
		t.Fatalf("Fail(0): %v", err)
	}
	if err := rs.Fail(1); err == nil {
		t.Fatal("failing the last live replica succeeded")
	}
	if err := rs.Fail(0); err == nil {
		t.Fatal("double-failing a seat succeeded")
	}
	if err := rs.Recover(1); err == nil {
		t.Fatal("recovering a live seat succeeded")
	}
}

func TestManagedAgentLeaseExpiry(t *testing.T) {
	for _, tc := range []struct {
		policy    FailPolicy
		wantWiped bool
	}{
		{FailStatic, false},
		{FailClosed, true},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			rs, err := NewReplicaSet(1, ControllerConfig{})
			if err != nil {
				t.Fatalf("NewReplicaSet: %v", err)
			}
			dp := &recDatapath{}
			cfg := fastAgentCfg()
			cfg.RuleLease = 75 * time.Millisecond
			cfg.FailAction = tc.policy
			ma, err := NewManagedAgent(4, "sw4", dp, rs, cfg)
			if err != nil {
				t.Fatalf("NewManagedAgent: %v", err)
			}
			defer ma.Close()

			// Seed the cache before the agent homes: its registration
			// resync installs the table, standing in for a real install.
			rules := []Rule{{Agg: 4, Flows: 1, Links: []uint32{9}}}
			rs.tables.set(4, rules)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := rs.WaitForSwitchesCtx(ctx, 1); err != nil {
				t.Fatalf("WaitForSwitchesCtx: %v", err)
			}
			waitCond(t, "resync install", func() bool { return len(dp.table()) == 1 })

			// Kill the whole control plane: the lease must expire under
			// the configured policy.
			rs.Close()
			waitCond(t, "lease expiry", func() bool { return ma.Expiries() == 1 })
			if got := ma.ExpiredRules(); got != 1 {
				t.Fatalf("ExpiredRules = %d, want 1", got)
			}
			if wiped := len(dp.table()) == 0; wiped != tc.wantWiped {
				t.Fatalf("policy %v: table wiped=%v, want %v (table %v)",
					tc.policy, wiped, tc.wantWiped, dp.table())
			}
			if ma.Connected() {
				t.Fatal("agent claims to be connected to a dead control plane")
			}
		})
	}
}

// TestExpireTableCountsTheLastAppliedFlowMod: lease expiry reports the
// rules of the FlowMod the fence last recorded as applied — none before
// the first install, none after a fail-closed wipe — and only fail-closed
// touches the datapath or forgets that FlowMod.
func TestExpireTableCountsTheLastAppliedFlowMod(t *testing.T) {
	for _, tc := range []struct {
		policy    FailPolicy
		wantRules []int64 // ExpiredRules after each of three expiries
	}{
		{FailStatic, []int64{0, 3, 6}},
		{FailClosed, []int64{0, 3, 3}},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			dp := &recDatapath{}
			ma := &ManagedAgent{cfg: AgentConfig{FailAction: tc.policy}.withDefaults(), name: "sw1", dp: dp}
			for i, want := range tc.wantRules {
				if i == 1 {
					ma.fence.last = &FlowMod{Rules: make([]Rule, 3)}
				}
				ma.expireTable()
				if got := ma.ExpiredRules(); got != want {
					t.Fatalf("expiry %d: ExpiredRules = %d, want %d", i+1, got, want)
				}
				if got := ma.Expiries(); got != int64(i+1) {
					t.Fatalf("expiry %d: Expiries = %d", i+1, got)
				}
				if forgot := ma.fence.last == nil; i > 0 && forgot != (tc.policy == FailClosed) {
					t.Fatalf("expiry %d: fence forgot the last FlowMod: %v under %v", i+1, forgot, tc.policy)
				}
			}
			if wipes := dp.installCount(); (wipes > 0) != (tc.policy == FailClosed) || len(dp.table()) != 0 {
				t.Fatalf("%v: %d datapath installs, table %v", tc.policy, wipes, dp.table())
			}
		})
	}
}

func TestManagedAgentReconnectsWithBackoff(t *testing.T) {
	rs, err := NewReplicaSet(1, ControllerConfig{})
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer rs.Close()
	dp := &recDatapath{}
	ma, err := NewManagedAgent(2, "sw2", dp, rs, fastAgentCfg())
	if err != nil {
		t.Fatalf("NewManagedAgent: %v", err)
	}
	defer ma.Close()
	waitCond(t, "first connect", func() bool { return ma.connects.Load() == 1 })

	// Take the only replica down: the agent must cycle through failed
	// redials (backoff), then reconnect once the seat returns.
	rs.tables.set(2, []Rule{{Agg: 2, Flows: 3}})
	if err := rs.slots[0].ctrl.Close(); err != nil {
		t.Fatalf("Close replica: %v", err)
	}
	rs.mu.Lock()
	rs.slots[0].ctrl = nil
	rs.mu.Unlock()
	waitCond(t, "redials while down", func() bool { return ma.redials.Load() >= 2 })
	if err := rs.Recover(0); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	waitCond(t, "reconnect", func() bool { return ma.connects.Load() >= 2 })
	// Registration resyncs the cached table onto the reconnected agent.
	waitCond(t, "post-reconnect resync", func() bool { return len(dp.table()) == 1 })
}

func TestAgentRejectsStaleEpoch(t *testing.T) {
	rs, seat := oneSeat(t, ControllerConfig{RequestTimeout: 2 * time.Second})
	managedAgent(t, rs, 0, "sw0", &recDatapath{})
	waitSwitches(t, rs, 1)
	if _, err := seat.lookup(0); err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if _, err := seatRPC(seat, 0, 1, FlowMod{Generation: 1, Epoch: 5}, MsgFlowModAck); err != nil {
		t.Fatalf("install at epoch 5: %v", err)
	}
	// A deposed replica's write (older epoch) must be fenced off.
	_, err := seatRPC(seat, 0, 2, FlowMod{Generation: 2, Epoch: 3}, MsgFlowModAck)
	if err == nil {
		t.Fatal("stale-epoch FlowMod accepted")
	}
	var em ErrorMsg
	if !errors.As(err, &em) || em.Code != ErrCodeStale {
		t.Fatalf("want ErrCodeStale, got: %v", err)
	}
	// Equal epoch is fine (same election term).
	if _, err := seatRPC(seat, 0, 3, FlowMod{Generation: 3, Epoch: 5}, MsgFlowModAck); err != nil {
		t.Fatalf("same-epoch install rejected: %v", err)
	}
}
