package ctrlplane

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
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

// AgentConfig tunes a switch agent.
type AgentConfig struct {
	// HandshakeTimeout bounds the Hello/HelloAck exchange. Default 5s.
	HandshakeTimeout time.Duration
	// WriteTimeout bounds each outgoing message. Default 10s.
	WriteTimeout time.Duration
	// RuleLease is the rule hard-timeout: how long a managed agent that
	// has lost all controller contact keeps trusting its installed
	// table before FailAction applies. A nonzero lease advertised by
	// the controller (HelloAck.LeaseMs) overrides it. 0 means no lease:
	// the table never expires.
	RuleLease time.Duration
	// FailAction is what happens to the rule table when the lease
	// expires. Default FailStatic.
	FailAction FailPolicy
	// ReconnectBase is a managed agent's first redial backoff; it
	// doubles (with jitter) per consecutive failure. Default 10ms.
	ReconnectBase time.Duration
	// ReconnectMax caps the redial backoff. Default 1s.
	ReconnectMax time.Duration
	// Logger receives structured diagnostic records; nil discards them.
	Logger *slog.Logger
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 10 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = time.Second
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

	// epochFloor is the highest election epoch seen on a FlowMod; older
	// epochs are fenced off with ErrCodeStale. The managed agent shares
	// one floor across reconnects so a deposed replica cannot roll the
	// table back after a failover.
	epochFloor *atomic.Uint64

	// EpochMs is the measurement epoch the controller advertised in its
	// HelloAck, for the datapath driver's information.
	EpochMs uint32
	// LeaseMs is the rule hard-timeout the controller advertised
	// (HelloAck.LeaseMs); 0 means none.
	LeaseMs uint32
}

// dial connects to the controller at addr, performs the handshake and
// returns a ready agent fencing on epochFloor, which the managed agent
// threads through every reconnect. Call Serve to process controller
// messages.
func dial(addr string, datapathID uint32, nodeName string, dp Datapath, cfg AgentConfig, epochFloor *atomic.Uint64) (*Agent, error) {
	cfg = cfg.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, cfg.HandshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: dial %s: %w", addr, err)
	}
	a := &Agent{
		cfg:        cfg,
		id:         datapathID,
		name:       nodeName,
		dp:         dp,
		conn:       conn,
		br:         bufio.NewReader(conn),
		epochFloor: epochFloor,
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
// with ErrCodeStale before it can touch the datapath.
func (a *Agent) handleFlowMod(m FlowMod) {
	for {
		cur := a.epochFloor.Load()
		if m.Epoch < cur {
			a.cfg.Logger.Warn("agent: rejected stale-epoch FlowMod",
				"agent", a.name, "epoch", m.Epoch, "floor", cur)
			_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeStale,
				Text: fmt.Sprintf("stale controller epoch %d < %d", m.Epoch, cur)})
			return
		}
		if a.epochFloor.CompareAndSwap(cur, m.Epoch) {
			break
		}
	}
	if err := a.dp.InstallRules(m.Generation, m.Rules); err != nil {
		a.cfg.Logger.Warn("agent: install failed", "agent", a.name, "generation", m.Generation, "err", err)
		_ = a.write(ErrorMsg{Token: m.Generation, Code: ErrCodeInstall, Text: err.Error()})
		return
	}
	_ = a.write(FlowModAck{Generation: m.Generation, Installed: uint32(len(m.Rules))})
}

// handleStatsReq snapshots counters and replies.
func (a *Agent) handleStatsReq(m StatsReq) {
	batch, err := a.dp.ReadCounters()
	if err != nil {
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
	_ = a.conn.SetWriteDeadline(time.Now().Add(a.cfg.WriteTimeout))
	return WriteMessage(a.conn, m)
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
	_ = WriteMessage(a.conn, Bye{})
	a.mu.Unlock()
	return a.conn.Close()
}
