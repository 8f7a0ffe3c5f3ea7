package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// statsNet starts a replica set of seats seats with n managed agents on
// loopback, switch stalled (if in range) on a slowDatapath, the rest on
// recDatapaths. The slowDatapath is released before the agents close.
func statsNet(t *testing.T, seats, n int, stalled uint32, cfg ControllerConfig) (*ReplicaSet, map[uint32]*ManagedAgent, *slowDatapath) {
	t.Helper()
	rs, err := NewReplicaSet(seats, cfg)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	t.Cleanup(func() { rs.Close() })
	slow := newSlowDatapath()
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
	for _, c := range rs.live() {
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
	rs, _, slow := statsNet(t, 3, n, stalled, ControllerConfig{RequestTimeout: 100 * time.Millisecond})
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
	rs, _, slow := statsNet(t, 3, 6, 2, ControllerConfig{RequestTimeout: 10 * time.Second})
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
	rs, agents, slow := statsNet(t, 3, 3, gone, ControllerConfig{RequestTimeout: 10 * time.Second})
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

// BenchmarkStatsRound times one stats round (one op) over three seats and
// six managed agents on loopback: ns/op is ns/round, allocs/op the heap
// objects a round costs the controller and the agents together.
func BenchmarkStatsRound(b *testing.B) {
	rs, err := NewReplicaSet(3, ControllerConfig{})
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
	if err := rs.WaitForSwitchesCtx(ctx, 6); err != nil {
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
