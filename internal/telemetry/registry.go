// Package telemetry is the repo's zero-dependency observability
// substrate: an allocation-free metrics registry (counters, gauges,
// fixed-bucket histograms), a bounded span/event tracer, a Prometheus
// text-format exposition writer, and an HTTP handler bundling /metrics,
// /trace and /debug/pprof. Hot-path updates are single atomic
// operations; registration (name lookup) is mutex-guarded and meant to
// happen once, at construction time, via the per-subsystem handle
// bundles in telemetry.go.
package telemetry

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use; Inc and Add are single atomic operations.
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored so the counter stays
// monotone even if a caller computes a bogus diff.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed, pre-declared buckets.
// Observe is lock-free: one atomic add on the matching bucket plus two
// on the running sum and count.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Int64
	name   string
	help   string
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// SecondsBuckets is the default bucket layout for wall-time histograms:
// 100µs to ~100s in roughly 3x steps.
var SecondsBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// Registry holds named metrics. Lookup-or-create methods are idempotent
// and mutex-guarded; returned handles are then updated lock-free.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order, for stable exposition
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	prom   []byte // WriteProm's exposition buffer, under mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Panics if the name is already registered as another kind.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.mustBeFree(name)
	c := &Counter{name: name, help: help}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name)
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket upper bounds on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.mustBeFree(name)
	if len(buckets) == 0 {
		buckets = SecondsBuckets
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("telemetry: histogram buckets must be ascending: " + name)
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Int64, len(buckets)+1),
		name:   name,
		help:   help,
	}
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

func (r *Registry) mustBeFree(name string) {
	_, c := r.counts[name]
	_, g := r.gauges[name]
	_, h := r.hists[name]
	if c || g || h {
		panic("telemetry: metric registered twice with different kinds: " + name)
	}
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra entry
	// for the implicit +Inf bucket. Counts are per-bucket, not
	// cumulative.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Snapshot is a JSON-marshalable point-in-time view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counts)),
		Gauges:   make(map[string]float64, len(r.gauges)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Sum:    h.Sum(),
				Count:  h.Count(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4), in registration order, with one Write. The exposition
// is appended into a buffer the registry keeps under its lock, so a scrape
// allocates nothing once the buffer has grown to the exposition's size.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.prom[:0]
	family := ""
	for _, name := range r.order {
		if c, ok := r.counts[name]; ok {
			// A counter's name may end in a label set; the counters of one
			// family, registered in a row, share one header.
			if f, _, _ := strings.Cut(name, "{"); f != family {
				family = f
				b = appendPromHeader(b, f, c.help, "counter")
			}
			b = append(append(b, name...), ' ')
			b = append(strconv.AppendInt(b, c.Value(), 10), '\n')
			continue
		}
		if g, ok := r.gauges[name]; ok {
			b = appendPromHeader(b, name, g.help, "gauge")
			b = append(append(b, name...), ' ')
			b = append(appendPromFloat(b, g.Value()), '\n')
			continue
		}
		if h, ok := r.hists[name]; ok {
			b = appendPromHeader(b, name, h.help, "histogram")
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				// A float's digits, sign, point and exponent need no
				// escaping: quoting is the two quotes.
				b = append(append(b, name...), "_bucket{le=\""...)
				b = append(appendPromFloat(b, bound), "\"} "...)
				b = append(strconv.AppendInt(b, cum, 10), '\n')
			}
			cum += h.counts[len(h.bounds)].Load()
			b = append(append(b, name...), "_bucket{le=\"+Inf\"} "...)
			b = append(strconv.AppendInt(b, cum, 10), '\n')
			b = append(append(b, name...), "_sum "...)
			b = append(appendPromFloat(b, h.Sum()), '\n')
			b = append(append(b, name...), "_count "...)
			b = append(strconv.AppendInt(b, h.Count(), 10), '\n')
		}
	}
	r.prom = b
	_, err := w.Write(b)
	return err
}

// appendPromHeader appends a family's HELP (when it has one) and TYPE
// lines.
func appendPromHeader(b []byte, name, help, kind string) []byte {
	if help != "" {
		b = append(append(append(append(b, "# HELP "...), name...), ' '), help...)
		b = append(b, '\n')
	}
	b = append(append(append(append(b, "# TYPE "...), name...), ' '), kind...)
	return append(b, '\n')
}

// appendPromFloat appends v as the exposition writes every float: the
// shortest representation that reads back as v.
func appendPromFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
