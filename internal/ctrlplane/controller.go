package ctrlplane

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/traffic"
)

// The retry schedule every controller→agent install and stats round trip
// runs under (see withRetry). Without retries every failover would
// surface as a caller-visible error.
const (
	// retryAttempts is the total number of attempts per RPC.
	retryAttempts = 3
	// retryBaseBackoff is the sleep before the first retry; it doubles
	// per attempt.
	retryBaseBackoff = 25 * time.Millisecond
	// retryMaxBackoff caps the doubling.
	retryMaxBackoff = 500 * time.Millisecond
)

// ControllerConfig tunes the replica set's controllers.
type ControllerConfig struct {
	// Name is advertised in HelloAck. Default "fubar-controller".
	Name string
	// EpochMs is the measurement epoch advertised to agents.
	// Default 10000.
	EpochMs uint32
	// RuleLease is the rule hard-timeout advertised to agents in
	// HelloAck (LeaseMs): how long an agent may forward on its
	// installed table after losing all controller contact before its
	// fail-safe policy applies. 0 (the default) disables the lease.
	RuleLease time.Duration
	// HandshakeTimeout bounds the Hello exchange per connection.
	// Default 5s.
	HandshakeTimeout time.Duration
	// RequestTimeout bounds each install or stats attempt (the
	// per-attempt deadline, derived from the caller's context when that
	// is tighter). Default 10s.
	RequestTimeout time.Duration
	// Logger receives structured diagnostic records; nil discards them.
	Logger *slog.Logger
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Name == "" {
		c.Name = "fubar-controller"
	}
	if c.EpochMs == 0 {
		c.EpochMs = 10000
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// swConn is the controller's state for one switch connection.
type swConn struct {
	id   uint32
	name string
	conn net.Conn

	writeMu sync.Mutex // serializes writes

	mu      sync.Mutex
	pending map[uint64]chan Message
	dead    error
}

// signal is a broadcast condition: waiters grab the current channel and
// block on it; broadcast closes it and installs a fresh one, waking
// every waiter exactly once per state change.
type signal struct {
	mu sync.Mutex
	ch chan struct{}
}

func newSignal() *signal { return &signal{ch: make(chan struct{})} }

func (s *signal) wait() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ch
}

func (s *signal) broadcast() {
	s.mu.Lock()
	close(s.ch)
	s.ch = make(chan struct{})
	s.mu.Unlock()
}

// tableCache is the last-acked rule table per switch — the
// differential-install state. One cache is shared by every replica of
// the set, which is what lets a survivor diff correctly against
// tables a dead peer pushed, and resync an orphaned switch from the
// handoff state on re-registration. A missing entry means "unknown or
// empty table": the next differential install pushes the full table.
type tableCache struct {
	mu     sync.Mutex
	tables map[uint32][]Rule
}

func newTableCache() *tableCache {
	return &tableCache{tables: make(map[uint32][]Rule)}
}

func (tc *tableCache) get(id uint32) ([]Rule, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	rules, ok := tc.tables[id]
	return rules, ok
}

func (tc *tableCache) set(id uint32, rules []Rule) {
	tc.mu.Lock()
	tc.tables[id] = rules
	tc.mu.Unlock()
}

func (tc *tableCache) drop(id uint32) {
	tc.mu.Lock()
	delete(tc.tables, id)
	tc.mu.Unlock()
}

// haStats are the HA counters of a replica set, which hands every
// replica the same instance.
type haStats struct {
	// retries counts RPC attempts retried after a transient error.
	retries atomic.Int64
	// resyncsAcked counts verified rule-table handoffs: re-registered
	// switches whose cached table was re-pushed and acked.
	resyncsAcked atomic.Int64
	// resyncInflight tracks handoffs still awaiting their ack.
	resyncInflight atomic.Int64
}

// Controller is one seat of a ReplicaSet: it accepts switch
// registrations, installs FUBAR's computed allocations as per-ingress
// rule tables on the switches homed on it, and polls the counters the
// optimizer's measurement plane (internal/measure) consumes. The seats
// of a set share one differential-install cache, election epoch and HA
// counters, so any replica can install to — and hand off — any switch.
type Controller struct {
	cfg ControllerConfig
	ln  net.Listener

	tables *tableCache
	epoch  *atomic.Uint64 // election epoch stamped on FlowMods
	stats  *haStats
	notify *signal // registration and resync state changes

	mu       sync.Mutex
	switches map[uint32]*swConn
	closed   bool

	wg    sync.WaitGroup
	token atomic.Uint64
}

// listen starts a controller on addr; a replica set passes the same
// cache, epoch, counters and signal to every replica.
func listen(addr string, cfg ControllerConfig, tables *tableCache, epoch *atomic.Uint64, stats *haStats, notify *signal) (*Controller, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: listen %s: %w", addr, err)
	}
	c := &Controller{
		cfg:      cfg,
		ln:       ln,
		tables:   tables,
		epoch:    epoch,
		stats:    stats,
		notify:   notify,
		switches: make(map[uint32]*swConn),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the controller's listen address.
func (c *Controller) Addr() net.Addr { return c.ln.Addr() }

// acceptLoop admits switch connections until the listener closes.
func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// handleConn performs the handshake and runs the read loop for one
// switch.
func (c *Controller) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	_ = conn.SetDeadline(time.Now().Add(c.cfg.HandshakeTimeout))
	msg, err := ReadMessage(br)
	if err != nil {
		c.cfg.Logger.Warn("controller: handshake read failed", "remote", conn.RemoteAddr().String(), "err", err)
		conn.Close()
		return
	}
	hello, ok := msg.(Hello)
	if !ok {
		c.cfg.Logger.Warn("controller: message before Hello", "remote", conn.RemoteAddr().String(), "type", msg.Type().String())
		conn.Close()
		return
	}
	ack := HelloAck{
		ControllerName: c.cfg.Name,
		EpochMs:        c.cfg.EpochMs,
		LeaseMs:        uint32(c.cfg.RuleLease / time.Millisecond),
	}
	if err := WriteMessage(conn, ack); err != nil {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})

	sw := &swConn{
		id:      hello.DatapathID,
		name:    hello.NodeName,
		conn:    conn,
		pending: make(map[uint64]chan Message),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if old, exists := c.switches[sw.id]; exists {
		old.conn.Close() // newer registration wins
	}
	c.switches[sw.id] = sw
	c.mu.Unlock()
	c.notify.broadcast()
	c.cfg.Logger.Info("controller: switch registered", "switch", sw.name, "datapath", sw.id, "remote", conn.RemoteAddr().String())

	// Verified rule-table handoff: a (re)registering switch whose last
	// acked table is in the shared cache gets it re-pushed, so a switch
	// orphaned by a controller failure is made consistent by whichever
	// replica it re-homes to — and the push is verified by its ack.
	if cached, ok := c.tables.get(sw.id); ok && len(cached) > 0 {
		c.stats.resyncInflight.Add(1)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.resync(sw, cached)
			c.stats.resyncInflight.Add(-1)
			c.notify.broadcast()
		}()
	}

	err = c.readLoop(sw, br)
	sw.fail(err)
	c.mu.Lock()
	if c.switches[sw.id] == sw {
		delete(c.switches, sw.id)
	}
	c.mu.Unlock()
	c.notify.broadcast()
	conn.Close()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		c.cfg.Logger.Warn("controller: switch read loop failed", "switch", sw.name, "datapath", sw.id, "err", err)
	}
}

// resyncGenerationBase keeps handoff generations out of the caller
// generation space, so a resync in flight can never collide with an
// install's pending token on the same connection.
const resyncGenerationBase = uint64(1) << 62

// resync re-pushes a re-registered switch's cached rule table and
// verifies the ack. An unverified handoff drops the cache entry: the
// switch's state is unknown, so the next differential install must
// push its full table rather than skip it.
func (c *Controller) resync(sw *swConn, rules []Rule) {
	gen := resyncGenerationBase | c.nextToken()
	reply, err := c.request(context.Background(), sw, gen, FlowMod{Generation: gen, Epoch: c.epoch.Load(), Rules: rules})
	if err == nil {
		if _, ok := reply.(FlowModAck); ok {
			c.stats.resyncsAcked.Add(1)
			c.cfg.Logger.Info("controller: switch rule table resynced",
				"switch", sw.name, "datapath", sw.id, "rules", len(rules))
			return
		}
		err = fmt.Errorf("got %v, want FlowModAck", reply.Type())
	}
	c.tables.drop(sw.id)
	c.cfg.Logger.Warn("controller: rule-table resync failed",
		"switch", sw.name, "datapath", sw.id, "err", err)
}

// readLoop dispatches replies to their pending requests.
func (c *Controller) readLoop(sw *swConn, br *bufio.Reader) error {
	for {
		msg, err := ReadMessage(br)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case EchoReply:
			sw.deliver(m.Token, m)
		case FlowModAck:
			sw.deliver(m.Generation, m)
		case StatsReply:
			sw.deliver(m.Token, m)
		case ErrorMsg:
			if m.Token != 0 {
				sw.deliver(m.Token, m)
			} else {
				c.cfg.Logger.Warn("controller: switch error", "switch", sw.name, "err", error(m))
			}
		case Echo:
			sw.writeMu.Lock()
			err := WriteMessage(sw.conn, EchoReply{Token: m.Token})
			sw.writeMu.Unlock()
			if err != nil {
				return err
			}
		case Bye:
			return io.EOF
		default:
			c.cfg.Logger.Warn("controller: unexpected message", "switch", sw.name, "type", msg.Type().String())
		}
	}
}

// deliver hands a reply to the waiting request, dropping stragglers.
func (s *swConn) deliver(token uint64, m Message) {
	s.mu.Lock()
	ch := s.pending[token]
	delete(s.pending, token)
	s.mu.Unlock()
	if ch != nil {
		ch <- m // buffered: never blocks
	}
}

// expect registers a pending token before the request is written.
func (s *swConn) expect(token uint64) (chan Message, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead != nil {
		return nil, s.dead
	}
	ch := make(chan Message, 1)
	s.pending[token] = ch
	return ch, nil
}

// fail wakes all pending requests with a connection-lost error.
func (s *swConn) fail(err error) {
	if err == nil {
		err = io.EOF
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead == nil {
		s.dead = fmt.Errorf("%w: %v", ErrSwitchDead, err)
	}
	for tok, ch := range s.pending {
		delete(s.pending, tok)
		ch <- nil
	}
}

// deadErr snapshots the connection's terminal error, if any.
func (s *swConn) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// request writes a message and awaits the reply matching token, under a
// per-attempt deadline: RequestTimeout layered beneath the caller's
// context (whichever is tighter wins).
func (c *Controller) request(ctx context.Context, sw *swConn, token uint64, m Message) (Message, error) {
	ch, err := sw.expect(token)
	if err != nil {
		return nil, err
	}
	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	deadline, _ := attemptCtx.Deadline()
	sw.writeMu.Lock()
	_ = sw.conn.SetWriteDeadline(deadline)
	err = WriteMessage(sw.conn, m)
	sw.writeMu.Unlock()
	if err != nil {
		sw.deliver(token, nil) // unregister
		return nil, fmt.Errorf("ctrlplane: write %v to switch %s(%d): %w (%v)", m.Type(), sw.name, sw.id, ErrSwitchDead, err)
	}
	select {
	case reply := <-ch:
		if reply == nil {
			if dead := sw.deadErr(); dead != nil {
				return nil, dead
			}
			return nil, fmt.Errorf("ctrlplane: request cancelled")
		}
		if em, isErr := reply.(ErrorMsg); isErr {
			return nil, em
		}
		return reply, nil
	case <-attemptCtx.Done():
		sw.deliver(token, nil)
		if err := ctx.Err(); err != nil {
			return nil, err // the caller's context won, not the attempt deadline
		}
		return nil, fmt.Errorf("ctrlplane: %v to switch %s(%d): %w", m.Type(), sw.name, sw.id, ErrTimeout)
	}
}

// withRetry runs one RPC operation under the retry schedule: transient
// errors (retryable) are retried with exponential backoff until the
// attempts run out or the caller's context dies; anything else returns
// immediately. Operations re-resolve their switch per attempt, so a
// retry can land on a reconnected agent.
func (c *Controller) withRetry(ctx context.Context, op func(context.Context) error) error {
	backoff := retryBaseBackoff
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil || attempt >= retryAttempts || !retryable(err) || ctx.Err() != nil {
			return err
		}
		c.stats.retries.Add(1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		}
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
	}
}

// SwitchCount reports the number of registered switches.
func (c *Controller) SwitchCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.switches)
}

// allocationTables converts a bundle allocation into per-switch rule
// tables: each bundle becomes a rule on the switch at its aggregate's
// ingress POP. Tables are canonically ordered (by aggregate, then path)
// so two allocations carrying the same rules produce identical tables
// regardless of bundle-list order — which is what lets differential
// installs recognize an unchanged switch.
func allocationTables(mat *traffic.Matrix, bundles []flowmodel.Bundle) map[uint32][]Rule {
	perSwitch := make(map[uint32][]Rule)
	for _, b := range bundles {
		agg := mat.Aggregate(b.Agg)
		links := make([]uint32, len(b.Edges))
		for i, e := range b.Edges {
			links[i] = uint32(e)
		}
		ingress := uint32(agg.Src)
		perSwitch[ingress] = append(perSwitch[ingress], Rule{
			Agg:   int32(b.Agg),
			Flows: uint32(b.Flows),
			Links: links,
		})
	}
	for _, rules := range perSwitch {
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Agg != rules[j].Agg {
				return rules[i].Agg < rules[j].Agg
			}
			return slices.Compare(rules[i].Links, rules[j].Links) < 0
		})
	}
	return perSwitch
}

// rulesEqual compares two rule tables entry by entry. The comparison is
// order-sensitive, which is why allocationTables canonically sorts
// every table it builds — without that sort, equal tables in different
// bundle order would be re-pushed and inflate the counted FlowMods.
func rulesEqual(a, b []Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Agg != b[i].Agg || a[i].Flows != b[i].Flows || len(a[i].Links) != len(b[i].Links) {
			return false
		}
		for j := range a[i].Links {
			if a[i].Links[j] != b[i].Links[j] {
				return false
			}
		}
	}
	return true
}

// InstallOutcome reports one differential allocation push: how many
// FlowMod messages actually hit the wire and what came back.
type InstallOutcome struct {
	// Generation is the install token used.
	Generation uint64
	// Targeted is the number of connected switches considered.
	Targeted int
	// FlowMods is the number of FlowMod messages written — switches
	// whose desired table differed from the controller's last acked
	// push (differential installs skip unchanged switches).
	FlowMods int
	// Rules is the total rule count across those messages.
	Rules int
	// Acks is the number of FlowModAck replies received.
	Acks int
}

// merge folds another outcome in (replica-set fan-out).
func (o *InstallOutcome) merge(other InstallOutcome) {
	o.Targeted += other.Targeted
	o.FlowMods += other.FlowMods
	o.Rules += other.Rules
	o.Acks += other.Acks
}

// install pushes an allocation differentially to the switches homed on
// this replica: only switches whose desired rule table differs from the
// set's last acked push receive a FlowMod (switch tables are physical
// state — an unchanged table needs no message). The outcome counts the
// FlowMod messages actually written and acked, which is how a
// closed-loop replay measures real install churn rather than
// estimating it from bundle diffs. A replica with no switches (or none
// needing a new table) contributes an empty outcome.
func (c *Controller) install(ctx context.Context, mat *traffic.Matrix, bundles []flowmodel.Bundle, generation uint64) (InstallOutcome, error) {
	perSwitch := allocationTables(mat, bundles)

	c.mu.Lock()
	closed := c.closed
	targets := make([]*swConn, 0, len(c.switches))
	ids := make([]uint32, 0, len(c.switches))
	for _, sw := range c.switches {
		if last, ok := c.tables.get(sw.id); ok && rulesEqual(perSwitch[sw.id], last) {
			continue
		}
		targets = append(targets, sw)
		ids = append(ids, sw.id)
	}
	total := len(c.switches)
	c.mu.Unlock()
	out := InstallOutcome{Generation: generation, Targeted: total}
	if closed {
		return out, ErrClosed
	}
	if len(targets) == 0 {
		return out, nil // no switches, or every table already current
	}

	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	acked := make([]bool, len(targets))
	epoch := c.epoch.Load()
	for i, sw := range targets {
		rules := perSwitch[sw.id]
		id := sw.id
		name := sw.name
		out.FlowMods++
		out.Rules += len(rules)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.withRetry(ctx, func(ctx context.Context) error {
				sw, err := c.lookup(id) // re-resolve: the agent may have reconnected
				if err != nil {
					return err
				}
				reply, err := c.request(ctx, sw, generation, FlowMod{Generation: generation, Epoch: epoch, Rules: rules})
				if err != nil {
					return err
				}
				if _, ok := reply.(FlowModAck); !ok {
					return fmt.Errorf("got %v, want FlowModAck", reply.Type())
				}
				return nil
			})
			if err != nil {
				errs[i] = fmt.Errorf("switch %s(%d): %w", name, id, err)
				return
			}
			acked[i] = true
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if acked[i] {
			out.Acks++
			c.tables.set(id, perSwitch[id])
		} else {
			// Unknown switch state: never skip it on the next diff.
			c.tables.drop(id)
		}
	}
	return out, errors.Join(errs...)
}

// collectStats polls every switch homed on this replica and returns
// their replies keyed by datapath ID. A switch that fails contributes an
// error instead of silence; a replica with no switches returns an empty
// map.
func (c *Controller) collectStats(ctx context.Context) (map[uint32]StatsReply, error) {
	c.mu.Lock()
	closed := c.closed
	ids := make([]uint32, 0, len(c.switches))
	names := make(map[uint32]string, len(c.switches))
	for _, sw := range c.switches {
		ids = append(ids, sw.id)
		names[sw.id] = sw.name
	}
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[uint32]StatsReply, len(ids))
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := c.withRetry(ctx, func(ctx context.Context) error {
				sw, err := c.lookup(id)
				if err != nil {
					return err
				}
				token := c.nextToken()
				reply, err := c.request(ctx, sw, token, StatsReq{Token: token})
				if err != nil {
					return err
				}
				sr, ok := reply.(StatsReply)
				if !ok {
					return fmt.Errorf("got %v, want StatsReply", reply.Type())
				}
				mu.Lock()
				out[id] = sr
				mu.Unlock()
				return nil
			})
			if err != nil {
				errs[i] = fmt.Errorf("switch %s(%d): %w", names[id], id, err)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// lookup finds a registered switch.
func (c *Controller) lookup(datapathID uint32) (*swConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	sw, ok := c.switches[datapathID]
	if !ok {
		return nil, fmt.Errorf("%w: datapath %d", ErrNoSuchSwitch, datapathID)
	}
	return sw, nil
}

// nextToken returns a fresh nonzero request token.
func (c *Controller) nextToken() uint64 {
	for {
		if t := c.token.Add(1); t != 0 {
			return t
		}
	}
}

// Close stops accepting, disconnects all switches and waits for
// connection goroutines (including in-flight resyncs) to finish.
func (c *Controller) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	switches := make([]*swConn, 0, len(c.switches))
	for _, sw := range c.switches {
		switches = append(switches, sw)
	}
	c.mu.Unlock()
	c.notify.broadcast()

	err := c.ln.Close()
	for _, sw := range switches {
		sw.writeMu.Lock()
		_ = sw.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = WriteMessage(sw.conn, Bye{})
		sw.writeMu.Unlock()
		sw.conn.Close()
	}
	c.wg.Wait()
	return err
}
