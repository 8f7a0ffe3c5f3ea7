package ctrlplane

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// DialDirectory resolves, at each (re)dial, the ordered list of
// controller addresses an agent should try. Returning the order fresh
// per dial is what lets a replica set express failover: a recovered
// replica shows up at the front of its owned switches' orders, and a
// dead one disappears, without any agent-side reconfiguration.
type DialDirectory interface {
	// DialOrder returns controller addresses in preference order for
	// the given switch. Empty means "no controller known right now".
	DialOrder(datapathID uint32) []string
}

// failsafeGenerationBase keeps fail-safe wipes out of both the caller
// generation space and the resync range.
const failsafeGenerationBase = uint64(3) << 62

// ManagedAgent is the fail-safe agent: it owns the connect→serve→redial
// lifecycle of its Agent connections. It dials the directory's addresses
// in order, serves until the connection dies, and redials with jittered
// exponential backoff. While orphaned — no controller reachable — it
// enforces the rule lease its last controller advertised (HelloAck.LeaseMs,
// the set's Config.RuleLease; the agent has none of its own): once it
// elapses without contact, the installed table expires under
// Config.FailAction (fail-static keeps it, fail-closed wipes it). The
// FlowMod fence — the election-epoch floor and the last FlowMod applied —
// persists across reconnects, so a deposed replica can never roll the
// table back after failover, and an install re-sent to a reconnected
// agent is applied once.
type ManagedAgent struct {
	cfg  Config
	id   uint32
	name string
	dir  DialDirectory
	dp   Datapath

	fence       flowModFence
	failsafeGen atomic.Uint64

	// connects counts successful controller handshakes (reconnects
	// included), redials the dial rounds that reached no controller.
	connects     atomic.Int64
	redials      atomic.Int64
	expiries     atomic.Int64
	expiredRules atomic.Int64

	mu     sync.Mutex
	cur    *Agent
	closed bool

	// Clock hooks: the connect loop only ever reads time through these,
	// so tests can drive the lease and backoff schedule with a fake
	// clock. Production agents get the real clock from NewManagedAgent.
	now   func() time.Time
	after func(time.Duration) <-chan time.Time

	done chan struct{}
	wg   sync.WaitGroup
}

// NewManagedAgent starts a managed agent; its connect loop runs until
// Close. The datapath keeps whatever table it held before the first
// successful install.
func NewManagedAgent(datapathID uint32, nodeName string, dp Datapath, dir DialDirectory, cfg Config) (*ManagedAgent, error) {
	return newManagedAgentClock(datapathID, nodeName, dp, dir, cfg, time.Now, time.After)
}

// newManagedAgentClock is NewManagedAgent with an injected clock, for
// deterministic backoff and lease tests.
func newManagedAgentClock(datapathID uint32, nodeName string, dp Datapath, dir DialDirectory, cfg Config,
	now func() time.Time, after func(time.Duration) <-chan time.Time) (*ManagedAgent, error) {
	if dp == nil {
		return nil, fmt.Errorf("ctrlplane: nil datapath")
	}
	if dir == nil {
		return nil, fmt.Errorf("ctrlplane: nil dial directory")
	}
	ma := &ManagedAgent{
		cfg:   cfg.withDefaults(),
		id:    datapathID,
		name:  nodeName,
		dir:   dir,
		dp:    dp,
		now:   now,
		after: after,
		done:  make(chan struct{}),
	}
	ma.wg.Add(1)
	go ma.run()
	return ma, nil
}

// run is the connect→serve→redial loop.
func (ma *ManagedAgent) run() {
	defer ma.wg.Done()
	// Jitter only desynchronizes redial stampedes; it never touches
	// rule content, so a per-switch seed keeps runs reproducible.
	rng := rand.New(rand.NewPCG(uint64(ma.id), 0x9e3779b97f4a7c15))
	backoff := reconnectBase
	lastContact := ma.now()
	var lease time.Duration // the last controller's
	expired := false
	for {
		if ma.isClosed() {
			return
		}
		agent, err := ma.dialAny()
		if err == nil {
			backoff = reconnectBase
			lease = time.Duration(agent.LeaseMs) * time.Millisecond
			expired = false
			ma.setCurrent(agent)
			ma.connects.Add(1)
			_ = agent.Serve()
			ma.setCurrent(nil)
			agent.Close()
			lastContact = ma.now()
			continue // lost the controller: first redial is immediate
		}
		ma.redials.Add(1)
		if !expired && lease > 0 && ma.now().Sub(lastContact) > lease {
			expired = true
			ma.expireTable()
		}
		// Jittered exponential backoff: [backoff/2, backoff).
		delay := backoff/2 + time.Duration(rng.Int64N(int64(backoff/2)+1))
		select {
		case <-ma.done:
			return
		case <-ma.after(delay):
		}
		if backoff *= 2; backoff > reconnectMax {
			backoff = reconnectMax
		}
	}
}

// dialAny tries the directory's addresses in order and returns the
// first agent that completes a handshake.
func (ma *ManagedAgent) dialAny() (*Agent, error) {
	addrs := ma.dir.DialOrder(ma.id)
	var firstErr error
	for _, addr := range addrs {
		a, err := dial(addr, ma.id, ma.name, ma.dp, ma.cfg, &ma.fence)
		if err == nil {
			return a, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("ctrlplane: no controller addresses for switch %d", ma.id)
	}
	return nil, firstErr
}

// expireTable applies the fail-safe policy to the installed table, the
// rules of the FlowMod the fence last recorded as applied.
func (ma *ManagedAgent) expireTable() {
	closed := ma.cfg.FailAction == FailClosed
	ma.fence.mu.Lock()
	n := 0
	if ma.fence.applied {
		n = len(ma.fence.rules.rules)
	}
	if closed {
		// The wiped table is no longer the last FlowMod's: a re-send of
		// that FlowMod must be applied again.
		ma.fence.applied = false
	}
	ma.fence.mu.Unlock()
	ma.expiries.Add(1)
	ma.expiredRules.Add(int64(n))
	// Fail-closed wipes the table; fail-static keeps forwarding on it.
	if closed {
		gen := failsafeGenerationBase | ma.failsafeGen.Add(1)
		if err := ma.dp.InstallRules(gen, nil); err != nil {
			ma.cfg.Logger.Warn("agent: fail-closed wipe failed", "agent", ma.name, "err", err)
		}
	}
	ma.cfg.Logger.Warn("agent: rule lease expired", "agent", ma.name,
		"datapath", ma.id, "policy", ma.cfg.FailAction.String(), "rules", n)
}

func (ma *ManagedAgent) setCurrent(a *Agent) {
	ma.mu.Lock()
	closed := ma.closed
	ma.cur = a
	ma.mu.Unlock()
	// A connection established while Close was in flight must not leave
	// Serve blocked forever.
	if closed && a != nil {
		a.Close()
	}
}

func (ma *ManagedAgent) isClosed() bool {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	return ma.closed
}

// connected reports whether the agent currently holds a live controller
// connection.
func (ma *ManagedAgent) connected() bool {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	return ma.cur != nil
}

// Expiries counts rule-lease expirations.
func (ma *ManagedAgent) Expiries() int64 { return ma.expiries.Load() }

// ExpiredRules counts rules that were in the table at lease expiry,
// summed over expiries.
func (ma *ManagedAgent) ExpiredRules() int64 { return ma.expiredRules.Load() }

// Close stops the connect loop and closes any live connection.
func (ma *ManagedAgent) Close() error {
	ma.mu.Lock()
	if ma.closed {
		ma.mu.Unlock()
		return nil
	}
	ma.closed = true
	cur := ma.cur
	ma.mu.Unlock()
	close(ma.done)
	if cur != nil {
		cur.Close()
	}
	ma.wg.Wait()
	// The loop may have swapped connections between our snapshot and
	// its exit; close whatever it left behind.
	ma.mu.Lock()
	cur = ma.cur
	ma.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
	return nil
}
