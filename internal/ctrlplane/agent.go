package ctrlplane

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
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

// AgentConfig tunes a switch agent.
type AgentConfig struct {
	// HandshakeTimeout bounds the Hello/HelloAck exchange. Default 5s.
	HandshakeTimeout time.Duration
	// RuleLease is the rule hard-timeout: how long a managed agent that
	// has lost all controller contact keeps trusting its installed
	// table before FailAction applies. A nonzero lease advertised by
	// the controller (HelloAck.LeaseMs) overrides it. 0 means no lease:
	// the table never expires.
	RuleLease time.Duration
	// FailAction is what happens to the rule table when the lease
	// expires. Default FailStatic.
	FailAction FailPolicy
	// Logger receives structured diagnostic records; nil discards them.
	Logger *slog.Logger
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Agent is one controller connection of a ManagedAgent — the switch
// side of the control protocol: it registers with a controller, applies
// FlowMods to its Datapath and answers stats polls from it.
type Agent struct {
	cfg  AgentConfig
	id   uint32
	name string
	dp   Datapath

	conn net.Conn
	br   *bufio.Reader

	mu     sync.Mutex // serializes writes and Close
	closed bool
	wbuf   []byte // frame buffer every write reuses, under mu

	// counters is every stats poll's batch, only ever touched by Serve.
	counters CounterBatch

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
// roll the table back after a failover. last is the FlowMod last applied:
// a controller that retries an install re-sends it under the same token,
// and a copy is acked without being applied twice.
type flowModFence struct {
	mu    sync.Mutex
	floor uint64
	last  *FlowMod
}

// dial connects to the controller at addr, performs the handshake and
// returns a ready agent on fence, which the managed agent threads through
// every reconnect. Call Serve to process controller messages.
func dial(addr string, datapathID uint32, nodeName string, dp Datapath, cfg AgentConfig, fence *flowModFence) (*Agent, error) {
	cfg = cfg.withDefaults()
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
		br:    bufio.NewReader(conn),
		fence: fence,
	}
	deadline := time.Now().Add(cfg.HandshakeTimeout)
	_ = conn.SetDeadline(deadline)
	if err := WriteMessage(conn, Hello{DatapathID: datapathID, NodeName: nodeName}); err != nil {
		conn.Close()
		return nil, err
	}
	msg, err := ReadMessage(a.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("ctrlplane: handshake: %w", err)
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("ctrlplane: handshake: got %v, want HelloAck", msg.Type())
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
		msg, err := ReadMessage(a.br)
		if err != nil {
			if errors.Is(err, io.EOF) || a.isClosed() {
				return nil
			}
			return err
		}
		switch m := msg.(type) {
		case Echo:
			if err := a.write(EchoReply{Token: m.Token}); err != nil {
				return err
			}
		case FlowMod:
			a.handleFlowMod(m)
		case StatsReq:
			a.handleStatsReq(m)
		case Bye:
			a.cfg.Logger.Info("agent: controller said Bye", "agent", a.name)
			return nil
		case ErrorMsg:
			a.cfg.Logger.Warn("agent: controller error", "agent", a.name, "err", error(m))
		default:
			_ = a.write(ErrorMsg{Code: ErrCodeUnsupported, Text: fmt.Sprintf("unexpected %v", msg.Type())})
		}
	}
}

// handleFlowMod applies an install and acks or reports failure. Epoch
// fencing happens first: a FlowMod stamped with an election epoch older
// than one already seen comes from a deposed replica and is rejected
// with ErrCodeStale before it can touch the datapath. A re-sent copy of
// the FlowMod last applied — same epoch, generation and rules — is acked
// without applying it again, so a retried install is applied once.
func (a *Agent) handleFlowMod(m FlowMod) {
	f := a.fence
	f.mu.Lock()
	floor := f.floor
	if m.Epoch >= floor {
		f.floor = m.Epoch
	}
	last := f.last
	f.mu.Unlock()
	if m.Epoch < floor {
		a.cfg.Logger.Warn("agent: rejected stale-epoch FlowMod",
			"agent", a.name, "epoch", m.Epoch, "floor", floor)
		_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeStale,
			Text: fmt.Sprintf("stale controller epoch %d < %d", m.Epoch, floor)})
		return
	}
	if last == nil || last.Epoch != m.Epoch || last.Generation != m.Generation || !rulesEqual(last.Rules, m.Rules) {
		if err := a.dp.InstallRules(m.Generation, m.Rules); err != nil {
			a.cfg.Logger.Warn("agent: install failed", "agent", a.name, "generation", m.Generation, "err", err)
			_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeInstall, Text: err.Error()})
			return
		}
		f.mu.Lock()
		f.last = &m
		f.mu.Unlock()
	}
	_ = a.write(FlowModAck{Generation: m.Generation, Installed: uint32(len(m.Rules))})
}

// handleStatsReq snapshots counters and replies.
func (a *Agent) handleStatsReq(m StatsReq) {
	batch := &a.counters
	if err := a.dp.ReadCounters(batch); err != nil {
		_ = a.write(ErrorMsg{Token: m.Token, Code: ErrCodeCounters, Text: err.Error()})
		return
	}
	_ = a.write(StatsReply{
		Token:      m.Token,
		Epoch:      batch.Epoch,
		DurationMs: uint32(batch.Duration / time.Millisecond),
		Counters:   batch.Counters,
	})
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
