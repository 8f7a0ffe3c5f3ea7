package daemon

import (
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"fubar/internal/telemetry"
)

// inflight tracks when each of a tenant's requests in flight began, so a
// scrape can tell how long the oldest has run: a stalled stream reader
// holding its tenant's gate shows as an age that keeps growing. A request
// takes a slot when it pins the tenant and frees it when it unpins;
// slots are reused, so a request allocates nothing for it.
type inflight struct {
	mu     sync.Mutex
	starts []time.Time // zero: a free slot
}

// begin records a request starting at now and returns its slot.
func (f *inflight) begin(now time.Time) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, s := range f.starts {
		if s.IsZero() {
			f.starts[i] = now
			return i
		}
	}
	f.starts = append(f.starts, now)
	return len(f.starts) - 1
}

// end frees a request's slot.
func (f *inflight) end(slot int) {
	f.mu.Lock()
	f.starts[slot] = time.Time{}
	f.mu.Unlock()
}

// oldest returns the start of the oldest request in flight, zero when
// there is none.
func (f *inflight) oldest() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	var old time.Time
	for _, s := range f.starts {
		if !s.IsZero() && (old.IsZero() || s.Before(old)) {
			old = s
		}
	}
	return old
}

// age is the seconds since start, 0 for a zero start.
func age(start, now time.Time) float64 {
	if start.IsZero() {
		return 0
	}
	return now.Sub(start).Seconds()
}

// The runtime/metrics samples a scrape reads.
const (
	rtGoroutines = iota
	rtHeapLive
	rtGCCPU
	rtTotalCPU
	rtSchedLatencies
	rtSamples
)

// health is what the daemon's /metrics reads the process's health into:
// the runtime/metrics samples, kept from scrape to scrape.
type health struct {
	mu      sync.Mutex
	samples [rtSamples]metrics.Sample
}

func newHealth() *health {
	h := new(health)
	for i, name := range [rtSamples]string{
		rtGoroutines:     "/sched/goroutines:goroutines",
		rtHeapLive:       "/gc/heap/live:bytes",
		rtGCCPU:          "/cpu/classes/gc/total:cpu-seconds",
		rtTotalCPU:       "/cpu/classes/total:cpu-seconds",
		rtSchedLatencies: "/sched/latencies:seconds",
	} {
		h.samples[i].Name = name
	}
	return h
}

// refreshHealth sets the daemon's health gauges: the runtime's, the
// scheduler's queue depth and the oldest request in flight across every
// tenant.
func (s *Server) refreshHealth() {
	if s.met == nil {
		return
	}
	h := s.health
	h.mu.Lock()
	metrics.Read(h.samples[:])
	s.met.Goroutines.Set(float64(sampleUint(h.samples[rtGoroutines])))
	s.met.HeapLive.Set(float64(sampleUint(h.samples[rtHeapLive])))
	if total := sampleFloat(h.samples[rtTotalCPU]); total > 0 {
		s.met.GCCPUFraction.Set(sampleFloat(h.samples[rtGCCPU]) / total)
	}
	if v := h.samples[rtSchedLatencies].Value; v.Kind() == metrics.KindFloat64Histogram {
		s.met.SchedLatency.Set(quantile(v.Float64Histogram(), 0.99))
	}
	h.mu.Unlock()

	s.met.QueueDepth.Set(float64(s.sched.queued()))
	now := time.Now()
	var old time.Time
	s.mu.Lock()
	for _, t := range s.tenants {
		if o := t.inflight.oldest(); !o.IsZero() && (old.IsZero() || o.Before(old)) {
			old = o
		}
	}
	s.mu.Unlock()
	s.met.OldestRequest.Set(age(old, now))
}

// sampleUint and sampleFloat read a sample, 0 when the runtime does not
// know its name.
func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// quantile returns the upper bound of the bucket holding the q-quantile
// of h: an estimate no lower than the quantile, or the bucket's lower
// bound when the upper is +Inf.
func quantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen > rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// metricsHandler serves the daemon's own registry, its health gauges
// read first.
func (s *Server) metricsHandler() http.Handler {
	h := telemetry.MetricsHandler(s.tel)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.refreshHealth()
		h.ServeHTTP(w, r)
	})
}
