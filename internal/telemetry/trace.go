package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one span record: a named unit of work with a wall-clock
// start, a duration, its place in the span tree and a few typed
// attributes. It is a fixed-size value with no reference other than its
// name, a constant, so the tracer stores it in its ring by value and an
// emit allocates nothing. Spans are emitted after the work completes
// (there is no open-span bookkeeping on the hot path); a span whose work
// has children takes its ID when it starts, NewID, and hands it down.
type Event struct {
	// TimeUnixNano is the span's start time.
	TimeUnixNano int64 `json:"ts"`
	// Name identifies the span kind, e.g. "core.step" or
	// "scenario.epoch".
	Name string `json:"name"`
	// DurNano is the span duration in nanoseconds.
	DurNano int64 `json:"dur"`
	Span
	// Attrs are the span's attributes (step index, utility, ...).
	Attrs Attrs `json:"fields,omitzero"`
}

// Span places one span in its trace: its own ID, its parent's (0 for a
// root) and the request that caused it (0 outside a request). IDs come
// from the span's tracer, request IDs from whoever serves the request.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
}

// Child is the span with ID id under s, in s's request.
func (s Span) Child(id uint64) Span { return Span{ID: id, Parent: s.ID, Req: s.Req} }

type spanKey struct{}

// WithSpan returns ctx carrying s: the span the work handed ctx runs
// under, whose ID its spans name as their parent.
func WithSpan(ctx context.Context, s Span) context.Context {
	return context.WithValue(ctx, spanKey{}, &s)
}

// SpanOf returns the span ctx carries, the zero Span when none.
func SpanOf(ctx context.Context) Span {
	if s, ok := ctx.Value(spanKey{}).(*Span); ok {
		return *s
	}
	return Span{}
}

// SpanContext is WithSpan for a loop: one context the loop rebinds on
// every iteration — Context to the iteration's context, Span to its span
// — so handing each iteration its parent allocates nothing. The work an
// iteration hands it must be done with it before the next rebinding.
type SpanContext struct {
	context.Context
	Span Span
}

// Value answers the span key with c.Span and every other key from
// c.Context.
func (c *SpanContext) Value(key any) any {
	if key == (spanKey{}) {
		return &c.Span
	}
	return c.Context.Value(key)
}

// IntKey, FloatKey and BoolKey name span attributes, one key type per
// value type, so an attribute's key fixes its type.
type (
	IntKey   uint8
	FloatKey uint8
	BoolKey  uint8
)

// The attribute keys, under the names the JSON form gives them.
const (
	KeyStep         IntKey = iota + 1 // "step"
	KeyCongested                      // "congested"
	KeyEscalation                     // "escalation"
	KeyCandidates                     // "candidates"
	KeyRefuted                        // "refuted"
	KeyRefutedLevel                   // "refuted_level"
	KeyRefutedLink                    // "refuted_link"
	KeyPasses                         // "passes"
	KeyEpoch                          // "epoch"
	KeySteps                          // "steps"
	KeyFlowMods                       // "flow_mods"
)

const KeyUtility FloatKey = 1 // "utility"

const KeyWarmStart BoolKey = 1 // "warm_start"

// keyNames holds each kind's key names, indexed by key.
var keyNames = [...][]string{
	kindInt: {KeyStep: "step", KeyCongested: "congested", KeyEscalation: "escalation",
		KeyCandidates: "candidates", KeyRefuted: "refuted", KeyRefutedLevel: "refuted_level",
		KeyRefutedLink: "refuted_link", KeyPasses: "passes", KeyEpoch: "epoch",
		KeySteps: "steps", KeyFlowMods: "flow_mods"},
	kindFloat: {KeyUtility: "utility"},
	kindBool:  {KeyWarmStart: "warm_start"},
}

type kind uint8

const (
	kindInt kind = iota + 1
	kindFloat
	kindBool
)

// slot packs a key and its kind into one byte, 0 being no key.
func slot(k kind, key uint8) uint8 { return uint8(k)<<6 | key }

// Attr is one typed span attribute: its key and its value's bits.
type Attr struct {
	key  uint8 // slot
	bits uint64
}

// Int is an integer attribute.
func Int(k IntKey, v int) Attr { return Attr{slot(kindInt, uint8(k)), uint64(int64(v))} }

// Float is a float attribute.
func Float(k FloatKey, v float64) Attr {
	return Attr{slot(kindFloat, uint8(k)), math.Float64bits(v)}
}

// Bool is a boolean attribute.
func Bool(k BoolKey, v bool) Attr {
	var b uint64
	if v {
		b = 1
	}
	return Attr{slot(kindBool, uint8(k)), b}
}

// MaxAttrs is the most attributes one span carries.
const MaxAttrs = 8

// Attrs are a span's attributes in fixed slots, in the order emitted.
type Attrs struct {
	keys [MaxAttrs]uint8 // slots; 0 marks an unused one
	bits [MaxAttrs]uint64
}

// MarshalJSON writes the attributes as one object, keys in name order
// and values as JSON numbers and booleans.
func (a Attrs) MarshalJSON() ([]byte, error) {
	var order [MaxAttrs]int
	n := 0
	for i, k := range a.keys {
		if k == 0 {
			continue
		}
		j := n
		for ; j > 0 && a.name(order[j-1]) > a.name(i); j-- {
			order[j] = order[j-1]
		}
		order[j] = i
		n++
	}
	b := []byte{'{'}
	for _, i := range order[:n] {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a.name(i))
		b = append(b, ':')
		switch bits := a.bits[i]; kind(a.keys[i] >> 6) {
		case kindInt:
			b = strconv.AppendInt(b, int64(bits), 10)
		case kindFloat:
			v, err := json.Marshal(math.Float64frombits(bits))
			if err != nil {
				return nil, err
			}
			b = append(b, v...)
		case kindBool:
			b = strconv.AppendBool(b, bits == 1)
		}
	}
	return append(b, '}'), nil
}

func (a *Attrs) name(i int) string { return keyNames[a.keys[i]>>6][a.keys[i]&63] }

// Tracer buffers recent span events in a fixed ring and fans them out
// to subscribers. Emit never blocks: a slow subscriber drops events
// rather than stalling the optimizer.
type Tracer struct {
	ids  atomic.Uint64
	mu   sync.Mutex
	ring []Event
	next int
	full bool
	subs map[chan Event]struct{}
}

const traceRingSize = 1024

// NewTracer returns a tracer with a 1024-event ring buffer.
func NewTracer() *Tracer {
	return &Tracer{
		ring: make([]Event, traceRingSize),
		subs: make(map[chan Event]struct{}),
	}
}

// NewID hands out a span ID, unique within t and never 0; a nil tracer
// hands out 0, no span.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Emit records the span s, named name, that started at start and just
// finished, with at most MaxAttrs attributes. It allocates nothing.
func (t *Tracer) Emit(name string, start time.Time, s Span, attrs ...Attr) {
	if t == nil {
		return
	}
	ev := Event{
		TimeUnixNano: start.UnixNano(),
		Name:         name,
		DurNano:      int64(time.Since(start)),
		Span:         s,
	}
	for i, a := range attrs {
		ev.Attrs.keys[i], ev.Attrs.bits[i] = a.key, a.bits
	}
	t.mu.Lock()
	t.ring[t.next] = ev
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.full = true
	}
	for ch := range t.subs {
		select {
		case ch <- ev:
		default: // subscriber too slow; drop
		}
	}
	t.mu.Unlock()
}

// Subscribe returns the buffered events, oldest first, and registers a
// channel that receives every event emitted after them: the snapshot and
// the registration share one critical section, so each event is in exactly
// one of the two. The returned cancel function unregisters and closes the
// channel.
func (t *Tracer) Subscribe() ([]Event, <-chan Event, func()) {
	ch := make(chan Event, 256)
	t.mu.Lock()
	var recent []Event
	if t.full {
		recent = append(recent, t.ring[t.next:]...)
	}
	recent = append(recent, t.ring[:t.next]...)
	t.subs[ch] = struct{}{}
	t.mu.Unlock()
	cancel := func() {
		t.mu.Lock()
		if _, ok := t.subs[ch]; ok {
			delete(t.subs, ch)
			close(ch)
		}
		t.mu.Unlock()
	}
	return recent, ch, cancel
}
