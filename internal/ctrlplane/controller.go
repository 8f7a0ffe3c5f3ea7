package ctrlplane

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/flowmodel"
	"fubar/internal/sdnsim"
	"fubar/internal/traffic"
)

// The retry schedule of an RPC round (runRound): the switches whose
// attempt failed retryably go again together as a further pass after the
// backoff. Stats rounds and installs run it in full; a resync makes one
// attempt. Without retries every failover would surface as a
// caller-visible error.
const (
	// retryAttempts is the total number of attempts per RPC.
	retryAttempts = 3
	// retryBaseBackoff is the sleep before the first retry; it doubles
	// per attempt.
	retryBaseBackoff = 25 * time.Millisecond
	// retryMaxBackoff caps the doubling.
	retryMaxBackoff = 500 * time.Millisecond
)

// controllerName is advertised in HelloAck, suffixed with the seat
// ("fubar-closedloop-0"); the measurement epoch beside it is
// sdnsim.MeasurementInterval.
const controllerName = "fubar-closedloop"

// ControllerConfig tunes the replica set's controllers.
type ControllerConfig struct {
	// RuleLease is the rule hard-timeout advertised to agents in
	// HelloAck (LeaseMs): how long an agent may forward on its
	// installed table after losing all controller contact before its
	// fail-safe policy applies. 0 (the default) disables the lease.
	RuleLease time.Duration
	// HandshakeTimeout bounds the Hello exchange per connection.
	// Default 5s.
	HandshakeTimeout time.Duration
	// RequestTimeout bounds each pass of an RPC round — a stats poll,
	// an install or a resync (the per-attempt deadline, derived from the
	// caller's context when that is tighter). Default 10s.
	RequestTimeout time.Duration
	// Logger receives structured diagnostic records; nil discards them.
	Logger *slog.Logger
}

func (c ControllerConfig) withDefaults() ControllerConfig {
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
	wbuf    []byte     // frame buffer every write reuses, under writeMu

	mu      sync.Mutex
	pending map[uint64]chan<- reply
	dead    error
}

// reply routes one answer to the request that registered its token on
// conn. msg is nil when the connection died. A registration is delivered
// at most once, so a channel with room for every registration made on it
// never blocks a sender.
type reply struct {
	conn  *swConn
	token uint64
	msg   Message
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
	name string
	cfg  ControllerConfig
	ln   net.Listener

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
func listen(addr, name string, cfg ControllerConfig, tables *tableCache, epoch *atomic.Uint64, stats *haStats, notify *signal) (*Controller, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: listen %s: %w", addr, err)
	}
	c := &Controller{
		name:     name,
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
	msg, err := readMessage(br, maxHello)
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
		ControllerName: c.name,
		EpochMs:        uint32(sdnsim.MeasurementInterval / time.Millisecond),
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
		pending: make(map[uint64]chan<- reply),
	}
	// Verified rule-table handoff: a (re)registering switch whose last
	// acked table is in the shared cache gets it re-pushed, so a switch
	// orphaned by a controller failure is made consistent by whichever
	// replica it re-homes to — and the push is verified by its ack. The
	// handoff counts as in flight before the switch is visible: a waiter
	// that sees every switch homed and no handoff in flight (a closed
	// loop's settle) must never race one still to start.
	cached, resync := c.tables.get(sw.id)
	resync = resync && len(cached) > 0
	if resync {
		c.stats.resyncInflight.Add(1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if resync {
			c.stats.resyncInflight.Add(-1)
			c.notify.broadcast()
		}
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

	if resync {
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

// resync re-pushes a re-registered switch's cached rule table in a
// one-target, one-attempt round and verifies the ack. An unverified
// handoff drops the cache entry: the switch's state is unknown, so the
// next differential install must push its full table rather than skip it.
func (c *Controller) resync(sw *swConn, rules []Rule) {
	gen := resyncGenerationBase | c.nextToken()
	t := []rpcTarget{{c: c, id: sw.id, name: sw.name, token: gen, want: MsgFlowModAck,
		req: FlowMod{Generation: gen, Epoch: c.epoch.Load(), Rules: rules}}}
	if err := runRound(context.Background(), t, 1, c.cfg.RequestTimeout, c.stats); err != nil {
		c.tables.drop(sw.id)
		c.cfg.Logger.Warn("controller: rule-table resync failed",
			"switch", sw.name, "datapath", sw.id, "err", err)
		return
	}
	c.stats.resyncsAcked.Add(1)
	c.cfg.Logger.Info("controller: switch rule table resynced",
		"switch", sw.name, "datapath", sw.id, "rules", len(rules))
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
			if err := sw.send(EchoReply{Token: m.Token}, time.Now().Add(c.cfg.RequestTimeout)); err != nil {
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
		ch <- reply{conn: s, token: token, msg: m} // buffered: never blocks
	}
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
		ch <- reply{conn: s, token: tok}
	}
}

// send writes m as one frame from the connection's buffer, under the
// write lock and the given write deadline.
func (s *swConn) send(m Message, deadline time.Time) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_ = s.conn.SetWriteDeadline(deadline)
	var err error
	s.wbuf, err = writeFrame(s.conn, s.wbuf, m)
	return err
}

// withdraw unregisters a token nobody waits on any more: a reply that
// arrives for it later is dropped.
func (s *swConn) withdraw(token uint64) {
	s.mu.Lock()
	delete(s.pending, token)
	s.mu.Unlock()
}

// post registers token to answer on ch, then writes m. A write that fails
// withdraws the token again.
func (s *swConn) post(token uint64, m Message, ch chan<- reply, deadline time.Time) error {
	s.mu.Lock()
	if s.dead != nil {
		s.mu.Unlock()
		return s.dead
	}
	s.pending[token] = ch
	s.mu.Unlock()
	if err := s.send(m, deadline); err != nil {
		s.withdraw(token)
		return fmt.Errorf("ctrlplane: write %v to switch %s(%d): %w (%v)", m.Type(), s.name, s.id, ErrSwitchDead, err)
	}
	return nil
}

// answer turns a delivered reply into the request's result: a lost
// connection (fail delivers nil after marking the switch dead) is its
// ErrSwitchDead, and a peer ErrorMsg an error.
func (s *swConn) answer(m Message) (Message, error) {
	if m == nil {
		return nil, s.deadErr()
	}
	if em, isErr := m.(ErrorMsg); isErr {
		return nil, em
	}
	return m, nil
}

// timedOut is the error of a request whose reply missed its deadline.
func (s *swConn) timedOut(t MsgType) error {
	return fmt.Errorf("ctrlplane: %v to switch %s(%d): %w", t, s.name, s.id, ErrTimeout)
}

// deadErr snapshots the connection's terminal error, if any.
func (s *swConn) deadErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
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
		slices.SortFunc(rules, func(a, b Rule) int {
			if c := cmp.Compare(a.Agg, b.Agg); c != 0 {
				return c
			}
			return slices.Compare(a.Links, b.Links)
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
		_ = sw.send(Bye{}, time.Now().Add(time.Second))
		sw.conn.Close()
	}
	c.wg.Wait()
	return err
}
