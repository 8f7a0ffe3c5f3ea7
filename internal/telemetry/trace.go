package telemetry

import (
	"sync"
	"time"
)

// Event is one span record: a named unit of work with a wall-clock
// start, a duration, and small structured fields. Step and epoch spans
// are emitted as events after the work completes (there is no open-span
// bookkeeping to keep the hot path allocation-light).
type Event struct {
	// TimeUnixNano is the span's start time.
	TimeUnixNano int64 `json:"ts"`
	// Name identifies the span kind, e.g. "core.step" or
	// "scenario.epoch".
	Name string `json:"name"`
	// DurNano is the span duration in nanoseconds.
	DurNano int64 `json:"dur"`
	// Fields carries span attributes (step index, utility, ...).
	Fields map[string]any `json:"fields,omitempty"`
}

// Tracer buffers recent span events in a fixed ring and fans them out
// to subscribers. Emit never blocks: a slow subscriber drops events
// rather than stalling the optimizer.
type Tracer struct {
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

// Emit records an event that started at start and just finished.
// Fields must not be mutated after the call.
func (t *Tracer) Emit(name string, start time.Time, fields map[string]any) {
	if t == nil {
		return
	}
	ev := Event{
		TimeUnixNano: start.UnixNano(),
		Name:         name,
		DurNano:      int64(time.Since(start)),
		Fields:       fields,
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
