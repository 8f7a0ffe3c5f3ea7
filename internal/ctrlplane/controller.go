package ctrlplane

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
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

// Config tunes a replica set's controllers and the managed agents homing
// on it: NewReplicaSet and NewManagedAgent take the same value.
type Config struct {
	// RuleLease is the rule hard-timeout the controllers advertise to
	// agents in HelloAck (LeaseMs), the only lease an agent applies: how
	// long it may forward on its installed table after losing all
	// controller contact before FailAction applies. 0 (the default)
	// disables the lease.
	RuleLease time.Duration
	// FailAction is what an agent's lease expiry does to its rule table.
	// Default FailStatic.
	FailAction FailPolicy
	// HandshakeTimeout bounds the Hello exchange per connection, on
	// either side. Default 5s.
	HandshakeTimeout time.Duration
	// RequestTimeout bounds each pass of an RPC round — a stats poll,
	// an install or a resync (the per-attempt deadline, derived from the
	// caller's context when that is tighter). Default 10s.
	RequestTimeout time.Duration
	// Logger receives structured diagnostic records; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
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

	// straggler is what the read loop decodes a StatsReply into when no
	// request waits on its token: checked, then dropped.
	straggler StatsReply

	mu      sync.Mutex
	pending map[uint64]waiter
	dead    error
}

// waiter is a registered request: the channel its reply goes to and, for
// a stats poll, the StatsReply the read loop decodes the reply into. A
// registration is claimed once — by the read loop that delivers its reply,
// by fail, or by the withdraw that gives up on it — so a channel with room
// for every registration made on it never blocks a sender, and into is
// written only by the claimer that sends on ch after writing.
type waiter struct {
	ch   chan<- reply
	into *StatsReply
}

// reply routes one answer to the request that registered its token on
// conn: the reply's type, or 0 when the connection died; err is a peer's
// ErrorMsg, or a reply frame that failed to decode. A StatsReply is
// already in the waiter's into.
type reply struct {
	conn  *swConn
	token uint64
	typ   MsgType
	err   error
}

// signal is a broadcast condition: waiters grab the current channel and
// block on it; broadcast closes it and installs a fresh one, waking
// every waiter exactly once per state change.
type signal struct {
	mu sync.Mutex
	ch chan struct{}
}

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
// Each switch's table lives in storage that switch's entry owns, copied
// in by set and kept when the entry is dropped, so a switch whose table
// changes costs a copy, not an allocation.
type tableCache struct {
	mu     sync.Mutex
	tables map[uint32]*cachedTable
}

// cachedTable is one switch's entry: its table, and whether it is known.
type cachedTable struct {
	ruleTable
	known bool
}

// get returns a copy of the switch's cached table, which the caller owns.
func (tc *tableCache) get(id uint32) ([]Rule, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.tables[id]
	if e == nil || !e.known {
		return nil, false
	}
	var cp ruleTable
	cp.set(e.rules)
	return cp.rules, true
}

// equal reports whether the switch's cached table is known and equal to
// rules.
func (tc *tableCache) equal(id uint32, rules []Rule) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e := tc.tables[id]
	return e != nil && e.known && rulesEqual(rules, e.rules)
}

// set copies rules in as the switch's cached table.
func (tc *tableCache) set(id uint32, rules []Rule) {
	tc.mu.Lock()
	e := tc.tables[id]
	if e == nil {
		e = new(cachedTable)
		tc.tables[id] = e
	}
	e.set(rules)
	e.known = true
	tc.mu.Unlock()
}

func (tc *tableCache) drop(id uint32) {
	tc.mu.Lock()
	if e := tc.tables[id]; e != nil {
		e.known = false
	}
	tc.mu.Unlock()
}

// ruleTable is a rule table in storage its owner keeps: set copies a
// table in, every rule's links into one array, reusing what the last set
// left. Only the owner may read it, and nothing it hands out survives the
// next set.
type ruleTable struct {
	rules []Rule
	links []uint32
}

// set makes t a deep copy of rules.
func (t *ruleTable) set(rules []Rule) {
	n := 0
	for _, r := range rules {
		n += len(r.Links)
	}
	t.links = slices.Grow(t.links[:0], n)[:n]
	t.rules = t.rules[:0]
	off := 0
	for _, r := range rules {
		links := t.links[off : off+len(r.Links) : off+len(r.Links)]
		off += copy(links, r.Links)
		t.rules = append(t.rules, Rule{Agg: r.Agg, Flows: r.Flows, Links: links})
	}
}

// Controller is one seat of a ReplicaSet: it accepts switch
// registrations, installs FUBAR's computed allocations as per-ingress
// rule tables on the switches homed on it, and polls the counters the
// optimizer's measurement plane (internal/measure) consumes. A seat keeps
// no shared state of its own: the differential-install cache, election
// epoch, HA counters and notify signal are its set's, so any replica can
// install to — and hand off — any switch.
type Controller struct {
	name string
	set  *ReplicaSet
	ln   net.Listener

	mu       sync.Mutex
	switches map[uint32]*swConn
	closed   bool

	wg    sync.WaitGroup
	token atomic.Uint64
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
	d := &decoder{r: bufio.NewReader(conn)}
	_ = conn.SetDeadline(time.Now().Add(c.set.cfg.HandshakeTimeout))
	t, p, err := d.next(maxHello)
	if err == nil && t != MsgHello {
		c.set.cfg.Logger.Warn("controller: message before Hello", "remote", conn.RemoteAddr().String(), "type", t.String())
		conn.Close()
		return
	}
	var hello Hello
	if err == nil {
		hello, err = parseHello(p)
	}
	if err != nil {
		c.set.cfg.Logger.Warn("controller: handshake read failed", "remote", conn.RemoteAddr().String(), "err", err)
		conn.Close()
		return
	}
	ack := HelloAck{
		ControllerName: c.name,
		EpochMs:        uint32(sdnsim.MeasurementInterval / time.Millisecond),
		LeaseMs:        uint32(c.set.cfg.RuleLease / time.Millisecond),
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
		pending: make(map[uint64]waiter),
	}
	// Verified rule-table handoff: a (re)registering switch whose last
	// acked table is in the shared cache gets it re-pushed, so a switch
	// orphaned by a controller failure is made consistent by whichever
	// replica it re-homes to — and the push is verified by its ack. The
	// handoff counts as in flight before the switch is visible: a waiter
	// that sees every switch homed and no handoff in flight (a closed
	// loop's settle) must never race one still to start.
	cached, resync := c.set.tables.get(sw.id)
	resync = resync && len(cached) > 0
	if resync {
		c.set.resyncInflight.Add(1)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if resync {
			c.set.resyncInflight.Add(-1)
			c.set.notify.broadcast()
		}
		conn.Close()
		return
	}
	if old, exists := c.switches[sw.id]; exists {
		old.conn.Close() // newer registration wins
	}
	c.switches[sw.id] = sw
	c.mu.Unlock()
	c.set.notify.broadcast()
	c.set.cfg.Logger.Info("controller: switch registered", "switch", sw.name, "datapath", sw.id, "remote", conn.RemoteAddr().String())

	if resync {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.resync(sw, cached)
			c.set.resyncInflight.Add(-1)
			c.set.notify.broadcast()
		}()
	}

	err = c.readLoop(sw, d)
	sw.fail(err)
	c.mu.Lock()
	if c.switches[sw.id] == sw {
		delete(c.switches, sw.id)
	}
	c.mu.Unlock()
	c.set.notify.broadcast()
	conn.Close()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		c.set.cfg.Logger.Warn("controller: switch read loop failed", "switch", sw.name, "datapath", sw.id, "err", err)
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
	r := &round{targets: []rpcTarget{{c: c, id: sw.id, name: sw.name, token: gen, want: MsgFlowModAck,
		req: FlowMod{Generation: gen, Epoch: c.set.epoch.Load(), Rules: rules}}}}
	if err := r.run(context.Background(), 1, c.set); err != nil {
		c.set.tables.drop(sw.id)
		c.set.cfg.Logger.Warn("controller: rule-table resync failed",
			"switch", sw.name, "datapath", sw.id, "err", err)
		return
	}
	c.set.resyncsAcked.Add(1)
	c.set.cfg.Logger.Info("controller: switch rule table resynced",
		"switch", sw.name, "datapath", sw.id, "rules", len(rules))
}

// readLoop dispatches replies to their pending requests, decoding each
// frame off the connection's one decoder.
func (c *Controller) readLoop(sw *swConn, d *decoder) error {
	for {
		t, p, err := d.next(maxPayload)
		if err != nil {
			return err
		}
		switch t {
		case MsgEchoReply, MsgFlowModAck, MsgStatsReply, MsgError:
			if err := sw.deliver(t, p, c.set.cfg.Logger); err != nil {
				return err
			}
		case MsgEchoReq:
			m, err := parseEcho(p)
			if err != nil {
				return err
			}
			if err := sw.send(EchoReply{Token: m.Token}, time.Now().Add(c.set.cfg.RequestTimeout)); err != nil {
				return err
			}
		case MsgBye:
			if err := parseBye(p); err != nil {
				return err
			}
			return io.EOF
		default:
			if _, err := decodeMessage(t, p); err != nil {
				return err
			}
			c.set.cfg.Logger.Warn("controller: unexpected message", "switch", sw.name, "type", t.String())
		}
	}
}

// deliver decodes a reply frame — every reply type carries its request's
// token first — and hands it to the request that registered the token: a
// StatsReply is decoded straight into the waiter's storage, claimed from
// pending first, so a withdraw that finds the token gone knows the reply
// is on its way. A reply nobody waits on is decoded into the connection's
// scratch and dropped, an unsolicited ErrorMsg logged. A frame that fails
// to decode ends the connection, its waiter told so.
func (s *swConn) deliver(t MsgType, p []byte, log *slog.Logger) error {
	var token uint64
	if len(p) >= 8 {
		token = binary.BigEndian.Uint64(p)
	}
	s.mu.Lock()
	w, claimed := s.pending[token]
	delete(s.pending, token)
	s.mu.Unlock()
	r := reply{conn: s, token: token, typ: t}
	var err error
	switch t {
	case MsgEchoReply:
		_, err = parseEchoReply(p)
	case MsgFlowModAck:
		_, err = parseFlowModAck(p)
	case MsgStatsReply:
		into := &s.straggler
		if claimed && w.into != nil {
			into = w.into
		}
		err = into.decode(p)
	case MsgError:
		var em ErrorMsg
		if em, err = parseErrorMsg(p); err == nil {
			r.err = em
			if token == 0 {
				log.Warn("controller: switch error", "switch", s.name, "err", error(em))
			}
		}
	}
	if err != nil {
		r.typ, r.err = 0, fmt.Errorf("%w: %v", ErrSwitchDead, err)
	}
	if claimed {
		w.ch <- r // buffered: never blocks
	}
	return err
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
	for tok, w := range s.pending {
		delete(s.pending, tok)
		w.ch <- reply{conn: s, token: tok}
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
// arrives for it later is dropped. It reports false when the token was
// already claimed — its reply is decoded or being decoded, and will be
// sent on the waiter's channel — so the caller must receive that reply
// before it may reuse the waiter's storage.
func (s *swConn) withdraw(token uint64) bool {
	s.mu.Lock()
	_, ok := s.pending[token]
	delete(s.pending, token)
	s.mu.Unlock()
	return ok
}

// post registers token to answer through w, then writes m. A write that
// fails withdraws the token again; when the token was claimed meanwhile
// (the connection died and fail answered it) the request counts as posted,
// its answer on the way.
func (s *swConn) post(token uint64, m Message, w waiter, deadline time.Time) error {
	s.mu.Lock()
	if s.dead != nil {
		s.mu.Unlock()
		return s.dead
	}
	s.pending[token] = w
	s.mu.Unlock()
	if err := s.send(m, deadline); err != nil && s.withdraw(token) {
		return fmt.Errorf("ctrlplane: write %v to switch %s(%d): %w (%v)", m.Type(), s.name, s.id, ErrSwitchDead, err)
	}
	return nil
}

// answer turns a delivered reply into the request's result: a lost
// connection (fail delivers no type after marking the switch dead) is its
// ErrSwitchDead, and a peer ErrorMsg or a reply that failed to decode an
// error.
func (s *swConn) answer(r reply) (MsgType, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.typ == 0 {
		return 0, s.deadErr()
	}
	return r.typ, nil
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

// tableBuilder converts a bundle allocation into per-switch rule tables:
// each bundle becomes a rule on the switch at its aggregate's ingress POP.
// Tables are canonically ordered (by aggregate, then path) so two
// allocations carrying the same rules produce identical tables regardless
// of bundle-list order — which is what lets differential installs
// recognize an unchanged switch. The builder keeps its storage from build
// to build: every table is a run of one rule slice, every rule's links a
// window of one array, and what a build hands out is valid until the next.
type tableBuilder struct {
	links  []uint32 // every rule's links, in bundle order
	staged []Rule   // one rule per bundle, in bundle order
	rules  []Rule   // the tables, switch after switch
	start  []int    // switch v's table is rules[start[v]:start[v+1]]
	next   []int    // placement cursor per switch
}

// build makes the builder's tables those of the allocation.
func (b *tableBuilder) build(mat *traffic.Matrix, bundles []flowmodel.Bundle) {
	n, nN := 0, 0 // links, and switches up to the highest ingress
	for _, bu := range bundles {
		n += len(bu.Edges)
		nN = max(nN, int(mat.Aggregate(bu.Agg).Src)+1)
	}
	b.links = slices.Grow(b.links[:0], n)[:n]
	b.start = slices.Grow(b.start[:0], nN+1)[:nN+1]
	clear(b.start)
	b.staged = b.staged[:0]
	off := 0
	for _, bu := range bundles {
		links := b.links[off : off+len(bu.Edges) : off+len(bu.Edges)]
		for i, e := range bu.Edges {
			links[i] = uint32(e)
		}
		off += len(links)
		b.staged = append(b.staged, Rule{Agg: int32(bu.Agg), Flows: uint32(bu.Flows), Links: links})
		b.start[mat.Aggregate(bu.Agg).Src+1]++
	}
	for v := range nN {
		b.start[v+1] += b.start[v]
	}
	// Place the rules switch by switch, each switch's in bundle order, then
	// sort each table: the order a table built alone in bundle order sorts to.
	b.next = append(b.next[:0], b.start[:nN]...)
	b.rules = slices.Grow(b.rules[:0], len(b.staged))[:len(b.staged)]
	for i, r := range b.staged {
		v := mat.Aggregate(bundles[i].Agg).Src
		b.rules[b.next[v]] = r
		b.next[v]++
	}
	for v := range nN {
		slices.SortFunc(b.rules[b.start[v]:b.start[v+1]], func(a, b Rule) int {
			if c := cmp.Compare(a.Agg, b.Agg); c != 0 {
				return c
			}
			return slices.Compare(a.Links, b.Links)
		})
	}
}

// table returns switch id's table from the last build, nil when it has no
// rules.
func (b *tableBuilder) table(id uint32) []Rule {
	if int(id)+1 >= len(b.start) || b.start[id] == b.start[id+1] {
		return nil
	}
	return b.rules[b.start[id]:b.start[id+1]]
}

// rulesEqual compares two rule tables entry by entry. The comparison is
// order-sensitive, which is why tableBuilder canonically sorts
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
	c.set.notify.broadcast()

	err := c.ln.Close()
	for _, sw := range switches {
		_ = sw.send(Bye{}, time.Now().Add(time.Second))
		sw.conn.Close()
	}
	c.wg.Wait()
	return err
}
