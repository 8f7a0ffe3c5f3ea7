package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// spanID names a recorded span; noSpan is the parent of a root.
type spanID int

const noSpan spanID = -1

// span is one timed interval at a layer boundary. Start and End are
// offsets from the recorder's origin, Parent is the span that caused
// this one, and Req is shared by every span of one request (one
// optimize call, one replay, one HTTP request).
type span struct {
	ID     spanID
	Parent spanID
	Req    int64
	Name   string
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory for the length of a traced pass; they
// are written out only after the run (writeJSONL), so tracing costs the
// measured code one mutex-guarded append per span and no I/O. Safe for
// concurrent use: the daemon workload records from client, handler and
// tenant goroutines at once.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a completed span.
func (r *recorder) add(name string, parent spanID, req int64, start, end time.Time) spanID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := spanID(len(r.spans))
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
	return id
}

// begin opens a span whose end is not known yet (a parent recorded
// before its children so they can name it); finish closes it.
func (r *recorder) begin(name string, parent spanID, req int64, start time.Time) spanID {
	return r.add(name, parent, req, start, start)
}

func (r *recorder) finish(id spanID, end time.Time) {
	r.mu.Lock()
	r.spans[id].End = end.Sub(r.origin)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the
// parent and overlapping children (concurrent work under one parent)
// are counted once, so self time is never negative.
func selfTimes(spans []span) []time.Duration {
	children := make([][]spanID, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && int(s.Parent) < len(spans) {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// durationsMs returns the durations, in milliseconds, of every span
// with the given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// coveredFrac is the share of the root spans' wall time that lies inside
// their child spans: 1 minus the roots' self time. What is missing is
// time the harness spent between operations.
func coveredFrac(spans []span) float64 {
	self := selfTimes(spans)
	var wall, own time.Duration
	for i, s := range spans {
		if s.Parent == noSpan {
			wall += s.End - s.Start
			own += self[i]
		}
	}
	if wall <= 0 {
		return 0
	}
	return 1 - float64(own)/float64(wall)
}

// writeJSONL writes one span per line with its self time.
func writeJSONL(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		line := struct {
			ID      spanID `json:"id"`
			Parent  spanID `json:"parent"`
			Req     int64  `json:"req"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			SelfNs  int64  `json:"self_ns"`
		}{s.ID, s.Parent, s.Req, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), self[i].Nanoseconds()}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
