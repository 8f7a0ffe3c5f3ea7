// Package ctrlplane is the online half of a FUBAR deployment: a small
// SDN control protocol spoken over TCP between the FUBAR controller and
// switch agents.
//
// The paper positions FUBAR as "an offline controller in SDN or MPLS
// networks, in conjunction with an online controller to actually admit
// flows to the paths that have been computed" (§5), and §2.1 assumes the
// controller can read per-aggregate byte counters and approximate flow
// counts from switches. This package provides both halves: a Controller
// that installs weighted path splits and polls counters, and an Agent
// that a switch (or a simulation standing in for one) runs.
//
// The protocol is a simple length-prefixed binary framing — an OpenFlow
// stand-in, not OpenFlow itself — built only on the standard library:
//
//	frame  := magic(2) version(1) type(1) length(4) payload(length)
//	strings are uint16-length-prefixed UTF-8
//	slices are uint32-count-prefixed
//	floats are IEEE-754 bits, big endian, like everything else
//
// Requests carry a caller-chosen token echoed by the matching reply, so
// a connection can have many requests in flight.
package ctrlplane

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Framing constants.
const (
	wireMagic uint16 = 0xFBAE
	// wireVersion 2 added HelloAck.LeaseMs (the controller-advertised
	// rule lease) and FlowMod.Epoch (the election-epoch fence). The
	// framing is not backward compatible across versions by design:
	// both ends of a deployment ship together.
	wireVersion uint8 = 2

	// maxPayload bounds one frame; a full HE-31 rule set is ~100 KiB,
	// so 16 MiB leaves two orders of magnitude of headroom.
	maxPayload = 16 << 20
	// maxString bounds names and error texts.
	maxString = 4096
	// maxHello is the largest valid Hello payload: a datapath ID and a
	// length-prefixed name.
	maxHello = 4 + 2 + maxString
	// payloadStep is the largest payload read into one allocation made
	// before its bytes arrive.
	payloadStep = 64 << 10
	// maxRules bounds rules or counters per message.
	maxRules = 1 << 20
	// maxPathLen bounds links per rule.
	maxPathLen = 4096
)

// MsgType discriminates frame payloads.
type MsgType uint8

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgEchoReq
	MsgEchoReply
	MsgFlowMod
	MsgFlowModAck
	MsgStatsReq
	MsgStatsReply
	MsgError
	MsgBye
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloAck:
		return "HelloAck"
	case MsgEchoReq:
		return "EchoReq"
	case MsgEchoReply:
		return "EchoReply"
	case MsgFlowMod:
		return "FlowMod"
	case MsgFlowModAck:
		return "FlowModAck"
	case MsgStatsReq:
		return "StatsReq"
	case MsgStatsReply:
		return "StatsReply"
	case MsgError:
		return "Error"
	case MsgBye:
		return "Bye"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is one decoded protocol message.
type Message interface {
	// Type reports the wire discriminator.
	Type() MsgType
	// appendPayload serializes the message body.
	appendPayload(dst []byte) []byte
}

// Hello is the agent's first message: who am I.
type Hello struct {
	// DatapathID is the switch's stable identifier; FUBAR uses the
	// topology NodeID of the POP the switch fronts.
	DatapathID uint32
	// NodeName is the human-readable POP name.
	NodeName string
}

// HelloAck completes the handshake.
type HelloAck struct {
	// ControllerName identifies the controller.
	ControllerName string
	// EpochMs advertises the measurement epoch the controller expects.
	EpochMs uint32
	// LeaseMs advertises the rule hard-timeout: how long an agent may
	// keep forwarding on its installed table after losing all
	// controller contact before it must apply its fail-safe policy
	// (Config.FailAction). 0 means no lease — rules never expire.
	LeaseMs uint32
}

// Echo is a liveness probe; the reply echoes the token.
type Echo struct {
	Token uint64
}

// EchoReply answers an Echo.
type EchoReply struct {
	Token uint64
}

// Rule is one installed forwarding entry: route Flows flows of aggregate
// Agg over the directed links in Links. An empty Links means traffic
// that never enters the backbone (a same-POP aggregate).
type Rule struct {
	Agg   int32
	Flows uint32
	Links []uint32
}

// FlowMod replaces the receiving switch's rule table (OpenFlow's
// OFPFC_ADD with replace semantics, batched).
type FlowMod struct {
	// Generation is the install token; the ack echoes it. Generations
	// increase monotonically per controller.
	Generation uint64
	// Epoch is the sender's election epoch. Agents remember the
	// highest epoch they have seen and reject FlowMods carrying an
	// older one (ErrCodeStale) — the fence that keeps a deposed
	// replica from clobbering tables its successor owns. Single
	// controllers leave it 0.
	Epoch uint64
	Rules []Rule
}

// FlowModAck confirms an install.
type FlowModAck struct {
	Generation uint64
	// Installed is the number of rules now in the table.
	Installed uint32
}

// StatsReq asks for the current counter batch.
type StatsReq struct {
	Token uint64
}

// CounterRec is one rule's counters for one epoch.
type CounterRec struct {
	Agg       int32
	Flows     uint32
	Bytes     float64
	Congested bool
	Links     []uint32
}

// StatsReply carries a switch's counters.
type StatsReply struct {
	Token      uint64
	Epoch      uint32
	DurationMs uint32
	Counters   []CounterRec
}

// ErrorMsg reports a peer-side failure tied to a request token
// (0 when unsolicited).
type ErrorMsg struct {
	Token uint64
	Code  uint16
	Text  string
}

// Error codes.
const (
	ErrCodeBadRequest  uint16 = 1
	ErrCodeInstall     uint16 = 2
	ErrCodeCounters    uint16 = 3
	ErrCodeUnsupported uint16 = 4
	// ErrCodeStale rejects a FlowMod whose election epoch is older
	// than one the agent has already accepted.
	ErrCodeStale uint16 = 5
)

// Bye announces an orderly shutdown.
type Bye struct{}

// Type implementations.
func (Hello) Type() MsgType      { return MsgHello }
func (HelloAck) Type() MsgType   { return MsgHelloAck }
func (Echo) Type() MsgType       { return MsgEchoReq }
func (EchoReply) Type() MsgType  { return MsgEchoReply }
func (FlowMod) Type() MsgType    { return MsgFlowMod }
func (FlowModAck) Type() MsgType { return MsgFlowModAck }
func (StatsReq) Type() MsgType   { return MsgStatsReq }
func (StatsReply) Type() MsgType { return MsgStatsReply }
func (ErrorMsg) Type() MsgType   { return MsgError }
func (Bye) Type() MsgType        { return MsgBye }

// Error makes ErrorMsg usable as an error.
func (e ErrorMsg) Error() string {
	return fmt.Sprintf("ctrlplane: peer error %d: %s", e.Code, e.Text)
}

// --- encoding primitives ---

func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
func appendString(dst []byte, s string) []byte {
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}
func appendU32Slice(dst []byte, vs []uint32) []byte {
	dst = appendU32(dst, uint32(len(vs)))
	for _, v := range vs {
		dst = appendU32(dst, v)
	}
	return dst
}

// reader is a bounds-checked payload cursor.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("ctrlplane: truncated %s at offset %d", what, r.off)
	}
}

func (r *reader) u8(what string) uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) u16(what string) uint16 {
	if r.err != nil || r.off+2 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32(what string) uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64(what string) uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

func (r *reader) boolean(what string) bool { return r.u8(what) != 0 }

func (r *reader) str(what string) string {
	n := int(r.u16(what))
	if r.err != nil {
		return ""
	}
	if n > maxString {
		r.err = fmt.Errorf("ctrlplane: %s length %d exceeds %d", what, n, maxString)
		return ""
	}
	if r.off+n > len(r.buf) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// u32Slice decodes a count-prefixed []uint32 into dst's storage, which it
// reuses when large enough, and returns it.
func (r *reader) u32Slice(what string, limit int, dst []uint32) []uint32 {
	n := int(r.u32(what))
	if r.err != nil {
		return dst[:0]
	}
	if n > limit {
		r.err = fmt.Errorf("ctrlplane: %s count %d exceeds %d", what, n, limit)
		return dst[:0]
	}
	if n == 0 {
		return dst[:0]
	}
	if r.off+4*n > len(r.buf) {
		r.fail(what)
		return dst[:0]
	}
	out := slices.Grow(dst[:0], n)[:n]
	for i := range out {
		out[i] = r.u32(what)
	}
	return out
}

// done errors unless the payload was consumed exactly.
func (r *reader) done(t MsgType) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("ctrlplane: %v payload has %d trailing bytes", t, len(r.buf)-r.off)
	}
	return nil
}

// --- per-message payloads ---

func (m Hello) appendPayload(dst []byte) []byte {
	dst = appendU32(dst, m.DatapathID)
	return appendString(dst, m.NodeName)
}

func parseHello(p []byte) (Hello, error) {
	r := reader{buf: p}
	m := Hello{DatapathID: r.u32("datapath id"), NodeName: r.str("node name")}
	return m, r.done(MsgHello)
}

func (m HelloAck) appendPayload(dst []byte) []byte {
	dst = appendString(dst, m.ControllerName)
	dst = appendU32(dst, m.EpochMs)
	return appendU32(dst, m.LeaseMs)
}

func parseHelloAck(p []byte) (HelloAck, error) {
	r := reader{buf: p}
	m := HelloAck{ControllerName: r.str("controller name"), EpochMs: r.u32("epoch"), LeaseMs: r.u32("lease")}
	return m, r.done(MsgHelloAck)
}

func (m Echo) appendPayload(dst []byte) []byte      { return appendU64(dst, m.Token) }
func (m EchoReply) appendPayload(dst []byte) []byte { return appendU64(dst, m.Token) }

func parseEcho(p []byte) (Echo, error) {
	r := reader{buf: p}
	m := Echo{Token: r.u64("token")}
	return m, r.done(MsgEchoReq)
}

func parseEchoReply(p []byte) (EchoReply, error) {
	r := reader{buf: p}
	m := EchoReply{Token: r.u64("token")}
	return m, r.done(MsgEchoReply)
}

func (m FlowMod) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Generation)
	dst = appendU64(dst, m.Epoch)
	dst = appendU32(dst, uint32(len(m.Rules)))
	for _, ru := range m.Rules {
		dst = appendU32(dst, uint32(ru.Agg))
		dst = appendU32(dst, ru.Flows)
		dst = appendU32Slice(dst, ru.Links)
	}
	return dst
}

// decode decodes a FlowMod payload into m, reusing m's rules and each
// rule's links: what m held before is overwritten.
func (m *FlowMod) decode(p []byte) error {
	r := reader{buf: p}
	m.Generation, m.Epoch = r.u64("generation"), r.u64("epoch")
	rules := m.Rules[:0]
	n := int(r.u32("rule count"))
	if r.err == nil && n > maxRules {
		m.Rules = rules
		return fmt.Errorf("ctrlplane: rule count %d exceeds %d", n, maxRules)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var links []uint32
		if len(rules) < cap(rules) { // the slot keeps an earlier decode's Links
			links = rules[:len(rules)+1][len(rules)].Links
		}
		rules = append(rules, Rule{
			Agg:   int32(r.u32("rule agg")),
			Flows: r.u32("rule flows"),
			Links: r.u32Slice("rule links", maxPathLen, links),
		})
	}
	m.Rules = rules
	return r.done(MsgFlowMod)
}

func (m FlowModAck) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Generation)
	return appendU32(dst, m.Installed)
}

func parseFlowModAck(p []byte) (FlowModAck, error) {
	r := reader{buf: p}
	m := FlowModAck{Generation: r.u64("generation"), Installed: r.u32("installed")}
	return m, r.done(MsgFlowModAck)
}

func (m StatsReq) appendPayload(dst []byte) []byte { return appendU64(dst, m.Token) }

func parseStatsReq(p []byte) (StatsReq, error) {
	r := reader{buf: p}
	m := StatsReq{Token: r.u64("token")}
	return m, r.done(MsgStatsReq)
}

func (m StatsReply) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Token)
	dst = appendU32(dst, m.Epoch)
	dst = appendU32(dst, m.DurationMs)
	dst = appendU32(dst, uint32(len(m.Counters)))
	for _, c := range m.Counters {
		dst = appendU32(dst, uint32(c.Agg))
		dst = appendU32(dst, c.Flows)
		dst = appendF64(dst, c.Bytes)
		dst = appendBool(dst, c.Congested)
		dst = appendU32Slice(dst, c.Links)
	}
	return dst
}

// decode decodes a StatsReply payload into m, reusing m's counters and
// each counter's links: what m held before is overwritten.
func (m *StatsReply) decode(p []byte) error {
	r := reader{buf: p}
	m.Token, m.Epoch, m.DurationMs = r.u64("token"), r.u32("epoch"), r.u32("duration")
	recs := m.Counters[:0]
	n := int(r.u32("counter count"))
	if r.err == nil && n > maxRules {
		m.Counters = recs
		return fmt.Errorf("ctrlplane: counter count %d exceeds %d", n, maxRules)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var links []uint32
		if len(recs) < cap(recs) { // the slot keeps an earlier decode's Links
			links = recs[:len(recs)+1][len(recs)].Links
		}
		recs = append(recs, CounterRec{
			Agg:       int32(r.u32("counter agg")),
			Flows:     r.u32("counter flows"),
			Bytes:     r.f64("counter bytes"),
			Congested: r.boolean("counter congested"),
			Links:     r.u32Slice("counter links", maxPathLen, links),
		})
	}
	m.Counters = recs
	return r.done(MsgStatsReply)
}

func (m ErrorMsg) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Token)
	dst = appendU16(dst, m.Code)
	return appendString(dst, m.Text)
}

func parseErrorMsg(p []byte) (ErrorMsg, error) {
	r := reader{buf: p}
	m := ErrorMsg{Token: r.u64("token"), Code: r.u16("code"), Text: r.str("text")}
	return m, r.done(MsgError)
}

func (Bye) appendPayload(dst []byte) []byte { return dst }

// --- framing ---

// frameHeaderLen is the size of magic, version, type and length.
const frameHeaderLen = 8

// writeFrame encodes m's whole frame — header, then payload — into buf's
// storage and sends it with one Write, so a frame is never split across
// two write(2) calls. It returns the buffer for the caller to keep: a
// connection that writes its frames through one buffer allocates nothing
// per frame once the buffer has grown to its largest.
func writeFrame(w io.Writer, buf []byte, m Message) ([]byte, error) {
	buf = appendU16(buf[:0], wireMagic)
	buf = append(buf, wireVersion, byte(m.Type()))
	buf = appendU32(buf, 0) // payload length, patched below
	buf = m.appendPayload(buf)
	n := len(buf) - frameHeaderLen
	if n > maxPayload {
		return buf, fmt.Errorf("ctrlplane: %v payload %d exceeds %d", m.Type(), n, maxPayload)
	}
	binary.BigEndian.PutUint32(buf[4:], uint32(n))
	if _, err := w.Write(buf); err != nil {
		return buf, fmt.Errorf("ctrlplane: write %v frame: %w", m.Type(), err)
	}
	return buf, nil
}

// WriteMessage frames and writes one message with a single Write. The
// caller serializes concurrent writers.
func WriteMessage(w io.Writer, m Message) error {
	_, err := writeFrame(w, make([]byte, 0, 64), m)
	return err
}

// ReadMessage reads and decodes one message into a new value: the frame
// decoder a connection keeps (decoder), on a payload buffer of its own.
func ReadMessage(r *bufio.Reader) (Message, error) {
	d := decoder{r: r}
	t, p, err := d.next(maxPayload)
	if err != nil {
		return nil, err
	}
	return decodeMessage(t, p)
}

// decoder reads one connection's frames into a payload buffer it keeps, so
// a connection's frames cost no allocation once the buffer has grown to
// the largest. What a frame decodes into is the caller's: a payload is
// valid until the next frame, and nothing decoded from it aliases it.
type decoder struct {
	r   *bufio.Reader
	hdr [frameHeaderLen]byte
	buf []byte
}

// next reads one frame whose payload may not exceed limit bytes — the
// controller's handshake reads its first frame with the largest valid
// Hello's length as the limit — and returns its type and payload.
func (d *decoder) next(limit uint32) (MsgType, []byte, error) {
	hdr := d.hdr[:]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return 0, nil, err // io.EOF passes through for orderly close detection
	}
	if got := binary.BigEndian.Uint16(hdr[0:]); got != wireMagic {
		return 0, nil, fmt.Errorf("ctrlplane: bad magic %#04x", got)
	}
	if hdr[2] != wireVersion {
		return 0, nil, fmt.Errorf("ctrlplane: unsupported version %d", hdr[2])
	}
	t := MsgType(hdr[3])
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > limit {
		return 0, nil, fmt.Errorf("ctrlplane: %v payload %d exceeds %d", t, n, limit)
	}
	p, err := d.payload(int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("ctrlplane: read %v payload: %w", t, err)
	}
	return t, p, nil
}

// payload reads an n-byte payload into the decoder's buffer. One that fits
// the buffer, or up to payloadStep bytes — every frame of a small network
// — is read into it whole, growing it once. A longer one grows the buffer
// with the bytes that arrive, so a header that claims maxPayload and sends
// nothing after it costs a few hundred bytes, not 16 MiB.
func (d *decoder) payload(n int) ([]byte, error) {
	if n <= max(cap(d.buf), payloadStep) {
		d.buf = slices.Grow(d.buf[:0], n)[:n]
		_, err := io.ReadFull(d.r, d.buf)
		return d.buf, err
	}
	p := d.buf[:0]
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(n-len(p), max(len(p), 512)))
		}
		k, err := d.r.Read(p[len(p):min(cap(p), n)])
		p = p[:len(p)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			d.buf = p
			return p, err
		}
	}
	d.buf = p
	return p, nil
}

// decodeMessage decodes a frame's payload into a new message of type t.
func decodeMessage(t MsgType, p []byte) (Message, error) {
	switch t {
	case MsgHello:
		return retm(parseHello(p))
	case MsgHelloAck:
		return retm(parseHelloAck(p))
	case MsgEchoReq:
		return retm(parseEcho(p))
	case MsgEchoReply:
		return retm(parseEchoReply(p))
	case MsgFlowMod:
		var m FlowMod
		err := m.decode(p)
		return retm(m, err)
	case MsgFlowModAck:
		return retm(parseFlowModAck(p))
	case MsgStatsReq:
		return retm(parseStatsReq(p))
	case MsgStatsReply:
		var m StatsReply
		err := m.decode(p)
		return retm(m, err)
	case MsgError:
		return retm(parseErrorMsg(p))
	case MsgBye:
		return retm(Bye{}, parseBye(p))
	default:
		return nil, fmt.Errorf("ctrlplane: unknown message type %d", uint8(t))
	}
}

// parseBye checks that a Bye carries no payload.
func parseBye(p []byte) error {
	if len(p) != 0 {
		return fmt.Errorf("ctrlplane: Bye carries %d payload bytes", len(p))
	}
	return nil
}

// retm adapts a typed (msg, err) pair to the Message interface.
func retm[M Message](m M, err error) (Message, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}
