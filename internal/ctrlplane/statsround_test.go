package ctrlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// statsNet starts a replica set of seats seats with n managed agents on
// loopback, every switch on a recDatapath, switch stalled's (if in range)
// behind a slowDatapath holding its installs (onInstall) or its stats
// polls. The slowDatapath is released before the agents close.
func statsNet(t *testing.T, seats, n int, stalled uint32, onInstall bool, cfg Config) (*ReplicaSet, map[uint32]*ManagedAgent, *slowDatapath) {
	t.Helper()
	rs, err := NewReplicaSet(seats, cfg)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	t.Cleanup(func() { rs.Close() })
	slow := newSlowDatapath(&recDatapath{}, onInstall)
	agents := make(map[uint32]*ManagedAgent, n)
	for id := uint32(0); id < uint32(n); id++ {
		var dp Datapath = &recDatapath{}
		if id == stalled {
			dp = slow
		}
		agents[id] = managedAgent(t, rs, id, fmt.Sprintf("sw%d", id), dp)
	}
	t.Cleanup(slow.Release) // runs before the agents' Close, which waits on it
	waitSwitches(t, rs, n)
	return rs, agents, slow
}

// pendingTokens counts tokens registered on every connection of rs.
func pendingTokens(rs *ReplicaSet) int {
	n := 0
	for _, c := range rs.live(nil) {
		c.mu.Lock()
		for _, sw := range c.switches {
			sw.mu.Lock()
			n += len(sw.pending)
			sw.mu.Unlock()
		}
		c.mu.Unlock()
	}
	return n
}

// TestStatsRoundStalledSwitch: a round over six switches on three seats,
// one of them stalled, returns the other five replies, fails the stalled
// one with ErrTimeout after all three attempts (two retries), and runs no
// goroutine per seat or per switch while it waits.
func TestStatsRoundStalledSwitch(t *testing.T) {
	const n, stalled = 6, 5
	rs, _, slow := statsNet(t, 3, n, stalled, false, Config{RequestTimeout: 100 * time.Millisecond})
	before := runtime.NumGoroutine()
	retries := rs.Stats().RPCRetries

	replies, err := rs.CollectStats(context.Background())
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout for the stalled switch, got: %v", err)
	}
	if want := fmt.Sprintf("switch sw%d(%d): ", stalled, stalled); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name the stalled switch %q: %v", want, err)
	}
	if len(replies) != n-1 {
		t.Fatalf("%d replies, want %d", len(replies), n-1)
	}
	if _, ok := replies[stalled]; ok {
		t.Fatal("stalled switch has a reply")
	}
	if got := rs.Stats().RPCRetries - retries; got != retryAttempts-1 {
		t.Fatalf("RPCRetries grew by %d, want %d", got, retryAttempts-1)
	}
	// The stalled datapath sampled the goroutine count while the round
	// waited on it: the round's own goroutine is the test's.
	select {
	case during := <-slow.entered:
		if during > before {
			t.Fatalf("%d goroutines while the round waited, %d before: the round spawned %d",
				during, before, during-before)
		}
	default:
		t.Fatal("the stalled switch never received a StatsReq")
	}
	if p := pendingTokens(rs); p != 0 {
		t.Fatalf("%d tokens left pending after the round", p)
	}
}

// TestStatsRoundCancelled: cancelling the caller's context mid-round
// returns the context's error at once, retries nothing, and withdraws the
// request still in flight from its connection.
func TestStatsRoundCancelled(t *testing.T) {
	rs, _, slow := statsNet(t, 3, 6, 2, false, Config{RequestTimeout: 10 * time.Second})
	retries := rs.Stats().RPCRetries
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		replies map[uint32]StatsReply
		err     error
	}
	done := make(chan result, 1)
	go func() {
		replies, err := rs.CollectStats(ctx)
		done <- result{replies, err}
	}()
	select {
	case <-slow.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled switch never received a StatsReq")
	}
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the round did not return after its context was cancelled")
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", res.err)
	}
	if _, ok := res.replies[2]; ok || len(res.replies) > 5 {
		t.Fatalf("replies from %d switches, the stalled one's among them: %v", len(res.replies), ok)
	}
	if got := rs.Stats().RPCRetries; got != retries {
		t.Fatalf("RPCRetries grew by %d after a cancel, want 0", got-retries)
	}
	if p := pendingTokens(rs); p != 0 {
		t.Fatalf("%d tokens left pending after a cancelled round", p)
	}
}

// TestStatsRoundDeregistered: a switch whose agent goes away while its
// request is in flight fails that attempt with ErrSwitchDead; the retry
// pass re-resolves it, finds it deregistered and ends on ErrNoSuchSwitch.
func TestStatsRoundDeregistered(t *testing.T) {
	const gone = 1
	rs, agents, slow := statsNet(t, 3, 3, gone, false, Config{RequestTimeout: 10 * time.Second})
	retries := rs.Stats().RPCRetries
	done := make(chan error, 1)
	go func() {
		replies, err := rs.CollectStats(context.Background())
		if err == nil && len(replies) != 2 {
			err = fmt.Errorf("%d replies, want 2", len(replies))
		}
		done <- err
	}()
	select {
	case <-slow.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the switch never received a StatsReq")
	}
	// Close waits for the agent's serve loop, which is held in the
	// datapath until the cleanup releases it.
	closed := make(chan struct{})
	go func() {
		agents[gone].Close()
		close(closed)
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the round did not end after the switch went away")
	}
	if !errors.Is(err, ErrNoSuchSwitch) {
		t.Fatalf("want ErrNoSuchSwitch, got: %v", err)
	}
	if got := rs.Stats().RPCRetries - retries; got != 1 {
		t.Fatalf("RPCRetries grew by %d, want 1 (the retry after ErrSwitchDead)", got)
	}
	slow.Release()
	<-closed
}

// ingressBundles is an allocation over mat: one bundle per aggregate,
// with no links, so every switch has a table that a fabric accepts.
func ingressBundles(mat *traffic.Matrix) []flowmodel.Bundle {
	var bs []flowmodel.Bundle
	for _, a := range mat.Aggregates() {
		bs = append(bs, flowmodel.Bundle{Agg: a.ID, Flows: a.Flows})
	}
	return bs
}

// TestInstallRoundStalledSwitch: an install over six switches on three
// seats, one of them stalled, acks and caches the other five tables,
// fails the stalled one with ErrTimeout after all three attempts (two
// retries) and drops its cache entry, and runs no goroutine per seat or
// per switch while it waits.
func TestInstallRoundStalledSwitch(t *testing.T) {
	const n, stalled = 6, 5
	rs, _, slow := statsNet(t, 3, n, stalled, true, Config{RequestTimeout: 100 * time.Millisecond})
	_, truth, _ := newTestFabric(t, 1)
	bundles := ingressBundles(truth)
	rs.tables.set(stalled, []Rule{{Agg: 0, Flows: 1}}) // the entry the failed install must drop
	before := runtime.NumGoroutine()
	retries := rs.Stats().RPCRetries

	out, err := rs.InstallAllocationDiff(context.Background(), truth, bundles, 7)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout for the stalled switch, got: %v", err)
	}
	if want := fmt.Sprintf("switch sw%d(%d): ", stalled, stalled); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name the stalled switch %q: %v", want, err)
	}
	if out.Targeted != n || out.FlowMods != n || out.Acks != n-1 {
		t.Fatalf("outcome %+v, want %d targeted, %d FlowMods, %d acks", out, n, n, n-1)
	}
	tables := allocationTables(truth, bundles)
	for id := uint32(0); id < n; id++ {
		cached, ok := rs.tables.get(id)
		switch {
		case id == stalled && ok:
			t.Fatalf("stalled switch keeps a cache entry: %v", cached)
		case id != stalled && (!ok || !rulesEqual(cached, tables[id])):
			t.Fatalf("switch %d: cached %v (present %v), want its acked table %v", id, cached, ok, tables[id])
		}
	}
	if got := rs.Stats().RPCRetries - retries; got != retryAttempts-1 {
		t.Fatalf("RPCRetries grew by %d, want %d", got, retryAttempts-1)
	}
	// The stalled datapath sampled the goroutine count while the install
	// waited on it: the round's own goroutine is the test's.
	select {
	case during := <-slow.entered:
		if during > before {
			t.Fatalf("%d goroutines while the install waited, %d before: the install spawned %d",
				during, before, during-before)
		}
	default:
		t.Fatal("the stalled switch never received a FlowMod")
	}
	if p := pendingTokens(rs); p != 0 {
		t.Fatalf("%d tokens left pending after the install", p)
	}
}

// TestInstallRoundCancelled: cancelling the caller's context mid-install
// returns the context's error at once, retries nothing, leaves the
// stalled switch uncached and withdraws the FlowMod still in flight.
func TestInstallRoundCancelled(t *testing.T) {
	const stalled = 2
	rs, _, slow := statsNet(t, 3, 6, stalled, true, Config{RequestTimeout: 10 * time.Second})
	_, truth, _ := newTestFabric(t, 1)
	retries := rs.Stats().RPCRetries
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		out InstallOutcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := rs.InstallAllocationDiff(ctx, truth, ingressBundles(truth), 7)
		done <- result{out, err}
	}()
	select {
	case <-slow.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled switch never received a FlowMod")
	}
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the install did not return after its context was cancelled")
	}
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("want context.Canceled, got: %v", res.err)
	}
	if _, ok := rs.tables.get(stalled); ok || res.out.Acks > 5 {
		t.Fatalf("%d acks, the stalled switch cached: %v", res.out.Acks, ok)
	}
	if got := rs.Stats().RPCRetries; got != retries {
		t.Fatalf("RPCRetries grew by %d after a cancel, want 0", got-retries)
	}
	if p := pendingTokens(rs); p != 0 {
		t.Fatalf("%d tokens left pending after a cancelled install", p)
	}
}

// TestInstallRetryAppliesOnce: a switch whose first InstallRules outlasts
// RequestTimeout is sent the FlowMod again under the same generation. It
// applies the FlowMod once and acks the copies, so the install counts one
// FlowMod and the fabric's ledger grows by exactly that one.
func TestInstallRetryAppliesOnce(t *testing.T) {
	const slowID = 2
	topo, truth, fabric := newTestFabric(t, 1)
	rs, _ := oneSeat(t, Config{RequestTimeout: 100 * time.Millisecond})
	slow := newSlowDatapath(fabric.Datapath(slowID), true)
	for node := 0; node < topo.NumNodes(); node++ {
		id := topology.NodeID(node)
		dp := fabric.Datapath(id)
		if node == slowID {
			dp = slow
		}
		managedAgent(t, rs, uint32(node), topo.NodeName(id), dp)
	}
	t.Cleanup(slow.Release) // runs before the agents' Close, which waits on it
	waitSwitches(t, rs, topo.NumNodes())
	bundles := ingressBundles(truth)
	// Every other switch already holds its table: the install writes one
	// FlowMod.
	for id, rules := range allocationTables(truth, bundles) {
		if id != slowID {
			rs.tables.set(id, rules)
		}
	}
	acked := fabric.AckedFlowMods()
	retries := rs.Stats().RPCRetries

	time.AfterFunc(250*time.Millisecond, slow.Release)
	out, err := rs.InstallAllocationDiff(context.Background(), truth, bundles, 7)
	if err != nil {
		t.Fatalf("InstallAllocationDiff: %v", err)
	}
	if out.FlowMods != 1 || out.Acks != 1 {
		t.Fatalf("outcome %+v, want 1 FlowMod and 1 ack", out)
	}
	if rs.Stats().RPCRetries == retries {
		t.Fatal("the install was never retried: the stall did not outlast RequestTimeout")
	}
	if got := fabric.AckedFlowMods() - acked; got != out.FlowMods {
		t.Fatalf("the switch applied the FlowMod %d times, the install counted %d", got, out.FlowMods)
	}
}

// BenchmarkStatsRound times one stats round (one op) over three seats and
// six managed agents on loopback: ns/op is ns/round, allocs/op the heap
// objects a round costs the controller and the agents together.
func BenchmarkStatsRound(b *testing.B) {
	rs, err := NewReplicaSet(3, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	for id := uint32(0); id < 6; id++ {
		ma, err := NewManagedAgent(id, fmt.Sprintf("sw%d", id), &recDatapath{}, rs, fastAgentCfg())
		if err != nil {
			b.Fatal(err)
		}
		defer ma.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rs.Settle(ctx, 6); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replies, err := rs.CollectStats(context.Background())
		if err != nil || len(replies) != 6 {
			b.Fatalf("round %d: %d replies, err %v", i, len(replies), err)
		}
	}
}

// TestStragglerCannotWriteRecycledTarget: the read loop decodes a stats
// reply straight into the target that registered its token, so a reply
// that races its round's deadline must never land in a target after the
// round handed it back for the next round to refill. A raw switch answers
// every poll late, by delays drifting across the deadline, with a reply
// whose every field is tagged with its token. Every reply a round returns
// must carry that round's token throughout, no token may stay registered,
// and under -race a decode into recycled storage is a reported race.
func TestStragglerCannotWriteRecycledTarget(t *testing.T) {
	const timeout = 4 * time.Millisecond
	rs, seat := oneSeat(t, Config{RequestTimeout: timeout})
	conn, err := net.Dial("tcp", rs.DialOrder(1)[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteMessage(conn, Hello{DatapathID: 1, NodeName: "late"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	d := decoder{r: bufio.NewReader(conn)}
	if _, _, err := d.next(maxPayload); err != nil {
		t.Fatalf("hello ack: %v", err)
	}
	waitSwitches(t, rs, 1)

	delays := []time.Duration{0, timeout / 2, timeout - 200*time.Microsecond, timeout, timeout + 200*time.Microsecond, 2 * timeout}
	go func() {
		var wbuf []byte
		for i := 0; ; i++ {
			typ, p, err := d.next(maxPayload)
			if err != nil {
				return
			}
			if typ != MsgStatsReq {
				continue
			}
			req, err := parseStatsReq(p)
			if err != nil {
				return
			}
			time.Sleep(delays[i%len(delays)])
			tag := uint32(req.Token)
			reply := StatsReply{Token: req.Token, Epoch: tag, DurationMs: tag}
			for c := range 4 + i%5 {
				reply.Counters = append(reply.Counters, CounterRec{Agg: int32(tag), Flows: tag, Bytes: float64(tag),
					Links: []uint32{tag, tag, tag}[:1+c%3]})
			}
			if wbuf, err = writeFrame(conn, wbuf, &reply); err != nil {
				return
			}
		}
	}()

	answered := 0
	for round := 0; round < 60; round++ {
		replies, _ := rs.CollectStats(context.Background())
		token := seat.token.Load()
		if r, ok := replies[1]; ok {
			answered++
			tag := uint32(token)
			if r.Token != token || r.Epoch != tag || r.DurationMs != tag {
				t.Fatalf("round %d: reply tagged %d/%d/%d, want token %d", round, r.Token, r.Epoch, r.DurationMs, token)
			}
			for _, c := range r.Counters {
				if c.Agg != int32(tag) || c.Flows != tag || c.Bytes != float64(tag) {
					t.Fatalf("round %d: counter %+v, want every field tagged %d", round, c, tag)
				}
				for _, l := range c.Links {
					if l != tag {
						t.Fatalf("round %d: counter links %v, want every link tagged %d", round, c.Links, tag)
					}
				}
			}
		}
		if p := pendingTokens(rs); p != 0 {
			t.Fatalf("round %d: %d tokens left pending", round, p)
		}
	}
	t.Logf("%d of 60 rounds answered in time", answered)
	if answered == 0 {
		t.Fatal("no round was answered in time: the delays never beat the deadline")
	}
}
