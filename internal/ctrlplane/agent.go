package ctrlplane

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// FailPolicy selects what an orphaned agent does with its installed
// rule table once its lease expires without controller contact.
type FailPolicy uint8

const (
	// FailStatic keeps forwarding on the last installed table — the
	// allocation goes stale but traffic keeps flowing (the paper's
	// allocations degrade gracefully: an old split is suboptimal, not
	// wrong). This is the default.
	FailStatic FailPolicy = iota
	// FailClosed wipes the rule table, dropping the switch back to its
	// unallocated state. Use when forwarding on stale paths is worse
	// than not forwarding (e.g. paths through links under maintenance).
	FailClosed
)

// String names the policy.
func (p FailPolicy) String() string {
	switch p {
	case FailStatic:
		return "fail-static"
	case FailClosed:
		return "fail-closed"
	default:
		return fmt.Sprintf("FailPolicy(%d)", uint8(p))
	}
}

// A switch agent's fixed timings.
const (
	// writeTimeout bounds each outgoing message.
	writeTimeout = 10 * time.Second
	// reconnectBase is a managed agent's first redial backoff; it
	// doubles (with jitter) per consecutive failure.
	reconnectBase = 2 * time.Millisecond
	// reconnectMax caps the redial backoff.
	reconnectMax = 250 * time.Millisecond
)

// Agent is one controller connection of a ManagedAgent — the switch
// side of the control protocol: it registers with a controller, applies
// FlowMods to its Datapath and answers stats polls from it.
type Agent struct {
	cfg  Config
	id   uint32
	name string
	dp   Datapath

	conn net.Conn
	dec  decoder // the connection's frames, read only by dial and Serve

	mu     sync.Mutex // serializes writes and Close
	closed bool
	wbuf   []byte // frame buffer every write reuses, under mu

	// Serve's scratch, only ever touched by Serve: the FlowMod each install
	// decodes into, every stats poll's batch, and the replies it writes.
	mod      FlowMod
	counters CounterBatch
	stats    StatsReply
	ack      FlowModAck

	// fence is the FlowMod state the managed agent keeps across
	// reconnects.
	fence *flowModFence

	// EpochMs is the measurement epoch the controller advertised in its
	// HelloAck, for the datapath driver's information.
	EpochMs uint32
	// LeaseMs is the rule hard-timeout the controller advertised
	// (HelloAck.LeaseMs); 0 means none.
	LeaseMs uint32
}

// flowModFence is what a switch remembers of the FlowMods it was sent,
// kept across reconnects. floor is the highest election epoch seen; older
// epochs are fenced off with ErrCodeStale, so a deposed replica cannot
// roll the table back after a failover. The last FlowMod applied, when
// applied is set, is its generation, epoch and a copy of its rules: a
// controller that retries an install re-sends it under the same token,
// and a copy is acked without being applied twice.
type flowModFence struct {
	mu         sync.Mutex
	floor      uint64
	applied    bool
	generation uint64
	epoch      uint64
	rules      ruleTable
}

// dial connects to the controller at addr, performs the handshake and
// returns a ready agent on fence, which the managed agent threads through
// every reconnect. Call Serve to process controller messages.
func dial(addr string, datapathID uint32, nodeName string, dp Datapath, cfg Config, fence *flowModFence) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, cfg.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: dial %s: %w", addr, err)
	}
	a := &Agent{
		cfg:   cfg,
		id:    datapathID,
		name:  nodeName,
		dp:    dp,
		conn:  conn,
		dec:   decoder{r: bufio.NewReader(conn)},
		fence: fence,
	}
	deadline := time.Now().Add(cfg.HandshakeTimeout)
	_ = conn.SetDeadline(deadline)
	if err := WriteMessage(conn, Hello{DatapathID: datapathID, NodeName: nodeName}); err != nil {
		conn.Close()
		return nil, err
	}
	t, p, err := a.dec.next(maxPayload)
	if err == nil && t != MsgHelloAck {
		conn.Close()
		return nil, fmt.Errorf("ctrlplane: handshake: got %v, want HelloAck", t)
	}
	var ack HelloAck
	if err == nil {
		ack, err = parseHelloAck(p)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctrlplane: handshake: %w", err)
	}
	a.EpochMs = ack.EpochMs
	a.LeaseMs = ack.LeaseMs
	_ = conn.SetDeadline(time.Time{})
	cfg.Logger.Info("agent: connected", "agent", nodeName, "datapath", datapathID,
		"controller", ack.ControllerName, "epoch_ms", ack.EpochMs, "lease_ms", ack.LeaseMs)
	return a, nil
}

// Serve processes controller messages until the connection closes or a
// Bye arrives. An orderly shutdown (Bye, or EOF after Close) returns
// nil.
func (a *Agent) Serve() error {
	for {
		t, p, err := a.dec.next(maxPayload)
		if err == nil {
			err = a.handle(t, p)
		}
		if err != nil {
			if errors.Is(err, io.EOF) || a.isClosed() {
				return nil
			}
			return err
		}
	}
}

// handle decodes and acts on one frame; io.EOF ends Serve in order.
func (a *Agent) handle(t MsgType, p []byte) error {
	switch t {
	case MsgEchoReq:
		m, err := parseEcho(p)
		if err != nil {
			return err
		}
		return a.write(EchoReply{Token: m.Token})
	case MsgFlowMod:
		if err := a.mod.decode(p); err != nil {
			return err
		}
		a.handleFlowMod(&a.mod)
	case MsgStatsReq:
		m, err := parseStatsReq(p)
		if err != nil {
			return err
		}
		a.handleStatsReq(m)
	case MsgBye:
		if err := parseBye(p); err != nil {
			return err
		}
		a.cfg.Logger.Info("agent: controller said Bye", "agent", a.name)
		return io.EOF
	case MsgError:
		m, err := parseErrorMsg(p)
		if err != nil {
			return err
		}
		a.cfg.Logger.Warn("agent: controller error", "agent", a.name, "err", error(m))
	default:
		if _, err := decodeMessage(t, p); err != nil {
			return err
		}
		_ = a.write(ErrorMsg{Code: ErrCodeUnsupported, Text: fmt.Sprintf("unexpected %v", t)})
	}
	return nil
}

// handleFlowMod applies an install and acks or reports failure. Epoch
// fencing happens first: a FlowMod stamped with an election epoch older
// than one already seen comes from a deposed replica and is rejected
// with ErrCodeStale before it can touch the datapath. A re-sent copy of
// the FlowMod last applied — same epoch, generation and rules — is acked
// without applying it again, so a retried install is applied once.
func (a *Agent) handleFlowMod(m *FlowMod) {
	f := a.fence
	f.mu.Lock()
	floor := f.floor
	if m.Epoch >= floor {
		f.floor = m.Epoch
	}
	again := f.applied && f.epoch == m.Epoch && f.generation == m.Generation && rulesEqual(f.rules.rules, m.Rules)
	f.mu.Unlock()
	if m.Epoch < floor {
		a.cfg.Logger.Warn("agent: rejected stale-epoch FlowMod",
			"agent", a.name, "epoch", m.Epoch, "floor", floor)
		_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeStale,
			Text: fmt.Sprintf("stale controller epoch %d < %d", m.Epoch, floor)})
		return
	}
	if !again {
		if err := a.dp.InstallRules(m.Generation, m.Rules); err != nil {
			a.cfg.Logger.Warn("agent: install failed", "agent", a.name, "generation", m.Generation, "err", err)
			_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeInstall, Text: err.Error()})
			return
		}
		f.mu.Lock()
		f.applied, f.generation, f.epoch = true, m.Generation, m.Epoch
		f.rules.set(m.Rules)
		f.mu.Unlock()
	}
	a.ack = FlowModAck{Generation: m.Generation, Installed: uint32(len(m.Rules))}
	_ = a.write(&a.ack)
}

// handleStatsReq snapshots counters and replies.
func (a *Agent) handleStatsReq(m StatsReq) {
	batch := &a.counters
	if err := a.dp.ReadCounters(batch); err != nil {
		_ = a.write(ErrorMsg{Token: m.Token, Code: ErrCodeCounters, Text: err.Error()})
		return
	}
	a.stats = StatsReply{
		Token:      m.Token,
		Epoch:      batch.Epoch,
		DurationMs: uint32(batch.Duration / time.Millisecond),
		Counters:   batch.Counters,
	}
	_ = a.write(&a.stats)
}

// write sends one message under the write lock with a deadline.
func (a *Agent) write(m Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return net.ErrClosed
	}
	_ = a.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	var err error
	a.wbuf, err = writeFrame(a.conn, a.wbuf, m)
	return err
}

// isClosed reports whether Close was called.
func (a *Agent) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// Close sends Bye (best effort) and closes the connection. Safe to call
// concurrently with Serve.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	_ = a.conn.SetWriteDeadline(time.Now().Add(time.Second))
	a.wbuf, _ = writeFrame(a.conn, a.wbuf, Bye{})
	a.mu.Unlock()
	return a.conn.Close()
}
