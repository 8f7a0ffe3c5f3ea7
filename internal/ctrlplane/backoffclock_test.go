package ctrlplane

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// fakeClock drives a ManagedAgent's connect loop one redial round at a
// time, in two phases: After hands the round's delay to the test on
// delays, then stays parked until the test sends on release, and only
// then fires and advances the fake wall clock by the full delay. Between
// the two the loop is provably asleep, so the test can change what the
// next round will see without racing its dial.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	delays  chan time.Duration
	release chan struct{}
	quit    chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{
		t:       time.Unix(1_700_000_000, 0),
		delays:  make(chan time.Duration),
		release: make(chan struct{}),
		quit:    make(chan struct{}),
	}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	select {
	case c.delays <- d:
	case <-c.quit:
	}
	select {
	case <-c.release:
	case <-c.quit:
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	now := c.t
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

// mutableDirectory is a DialDirectory the test can repoint mid-run.
type mutableDirectory struct {
	mu    sync.Mutex
	addrs []string
}

func (d *mutableDirectory) DialOrder(uint32) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.addrs
}

func (d *mutableDirectory) set(addrs ...string) {
	d.mu.Lock()
	d.addrs = addrs
	d.mu.Unlock()
}

// TestManagedAgentBackoffSchedule pins the reconnect backoff schedule
// exactly under a fake clock: the jitter rng is seeded per switch, so
// the test replays the same PCG stream and asserts every redial delay
// bit for bit — delay_i = b_i/2 + jitter in [0, b_i/2], with b_i
// doubling from reconnectBase up to the reconnectMax cap — and that a
// successful connect resets the schedule to reconnectBase while the
// jitter stream keeps advancing.
func TestManagedAgentBackoffSchedule(t *testing.T) {
	const (
		id   = uint32(6)
		base = reconnectBase
		max  = reconnectMax
		// Nine failed rounds walk the full schedule: 2, 4, …, 128 ms,
		// then the 250 ms cap twice, pre-jitter.
		rounds = 9
	)
	clk := newFakeClock()
	dir := &mutableDirectory{} // empty: every dial round fails
	ma, err := newManagedAgentClock(id, "sw6", &recDatapath{}, dir, Config{
		HandshakeTimeout: time.Second,
	}, clk.Now, clk.After)
	if err != nil {
		t.Fatalf("newManagedAgentClock: %v", err)
	}
	defer func() {
		close(clk.quit)
		ma.Close()
	}()

	// The model: the loop's rng, replayed. A draw happens once per
	// failed round; connects consume nothing.
	rng := rand.New(rand.NewPCG(uint64(id), 0x9e3779b97f4a7c15))
	backoff := base
	nextWant := func() time.Duration {
		d := backoff/2 + time.Duration(rng.Int64N(int64(backoff/2)+1))
		if backoff *= 2; backoff > max {
			backoff = max
		}
		return d
	}
	recv := func(round string) time.Duration {
		select {
		case d := <-clk.delays:
			return d
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: connect loop never reached its backoff sleep", round)
			return 0
		}
	}
	release := func() {
		select {
		case clk.release <- struct{}{}:
		case <-time.After(5 * time.Second):
			t.Fatal("connect loop is not parked in its backoff sleep")
		}
	}

	// Each delay is in [b/2, b] and equal to the replayed rng.
	bounds := backoff
	for i := 0; i < rounds; i++ {
		want := nextWant()
		got := recv("initial")
		if got != want {
			t.Fatalf("round %d: delay %v, want %v (jittered schedule diverged)", i, got, want)
		}
		if got < bounds/2 || got > bounds {
			t.Fatalf("round %d: delay %v outside [%v, %v]", i, got, bounds/2, bounds)
		}
		if bounds *= 2; bounds > max {
			bounds = max
		}
		if i < rounds-1 {
			release()
		}
	}

	// The loop is parked in its last sleep: point the directory at a
	// live controller, then release it, so the next dial succeeds.
	rs, _ := oneSeat(t, Config{})
	dir.set(rs.DialOrder(id)...)
	release()
	waitCond(t, "agent connected", func() bool { return ma.connects.Load() == 1 })

	// Kill the controller: the serve loop returns, and the redial
	// schedule must restart at reconnectBase — with the jitter stream
	// continuing where it left off, not reseeded.
	rs.Close()
	backoff = base
	for i := 0; i < 3; i++ {
		want := nextWant()
		got := recv("post-reset")
		if got != want {
			t.Fatalf("post-reset round %d: delay %v, want %v (backoff did not reset to base)", i, got, want)
		}
		release()
	}
	if ma.redials.Load() < rounds+3 {
		t.Fatalf("counted %d redial rounds, want at least %d", ma.redials.Load(), rounds+3)
	}
}
