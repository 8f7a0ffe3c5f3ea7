package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fubar_test_total", "test counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters stay monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("fubar_test_total", "other help") != c {
		t.Fatal("counter lookup not idempotent")
	}

	g := r.Gauge("fubar_test_gauge", "test gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("fubar_test_seconds", "test hist", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Fatalf("hist sum = %v, want 56.05", h.Sum())
	}

	snap := r.Snapshot()
	if snap.Counters["fubar_test_total"] != 5 {
		t.Fatalf("snapshot counter = %d", snap.Counters["fubar_test_total"])
	}
	hs := snap.Histograms["fubar_test_seconds"]
	wantCounts := []int64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("fubar_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic re-registering counter as gauge")
		}
	}()
	r.Gauge("fubar_clash", "")
}

func TestWritePromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("fubar_a_total", "a counter").Add(3)
	r.Gauge("fubar_b", "a gauge").Set(1.25)
	h := r.Histogram("fubar_c_seconds", "a hist", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	h.Observe(100)
	// Counters of one family, told apart by a label: one header.
	r.Counter(`fubar_d_total{result="hit"}`, "a family").Add(2)
	r.Counter(`fubar_d_total{result="miss"}`, "a family").Add(5)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE fubar_a_total counter\nfubar_a_total 3\n",
		"# TYPE fubar_b gauge\nfubar_b 1.25\n",
		"# TYPE fubar_c_seconds histogram\n",
		"fubar_c_seconds_bucket{le=\"0.5\"} 1\n",
		"fubar_c_seconds_bucket{le=\"2\"} 2\n",
		"fubar_c_seconds_bucket{le=\"+Inf\"} 3\n",
		"fubar_c_seconds_sum 101.1\n",
		"fubar_c_seconds_count 3\n",
		"# HELP fubar_d_total a family\n# TYPE fubar_d_total counter\nfubar_d_total{result=\"hit\"} 2\nfubar_d_total{result=\"miss\"} 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("own exposition fails CheckExposition: %v", err)
	}
}

// TestHACountersExposedAtZero pins that the HA control-plane counters are
// in the exposition, at zero, from the moment a control plane takes its
// handles — a dashboard watching for a failover can rely on them existing
// before the first incident — and that the exposition parses.
func TestHACountersExposedAtZero(t *testing.T) {
	tel := New()
	tel.Ctrlplane()
	var b strings.Builder
	if err := tel.Registry.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{
		"fubar_ctrlplane_failovers_total",
		"fubar_ctrlplane_rpc_retries_total",
		"fubar_ctrlplane_expired_rules_total",
	} {
		if !strings.Contains(out, "# TYPE "+name+" counter\n"+name+" 0\n") {
			t.Errorf("exposition lacks %s at zero:\n%s", name, out)
		}
	}
	if err := CheckExposition(out); err != nil {
		t.Fatalf("exposition fails CheckExposition: %v", err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fubar_conc_total", "")
	h := r.Histogram("fubar_conc_seconds", "", []float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("hist count=%d sum=%v, want 8000/4000", h.Count(), h.Sum())
	}
}

func TestTracerRingAndSubscribe(t *testing.T) {
	tr := NewTracer()
	_, ch, cancel := tr.Subscribe()
	defer cancel()
	start := time.Now()
	for i := 0; i < traceRingSize+10; i++ {
		tr.Emit("core.step", start, map[string]any{"step": i})
	}
	recent, _, cancelLate := tr.Subscribe()
	cancelLate()
	if len(recent) != traceRingSize {
		t.Fatalf("recent = %d events, want %d", len(recent), traceRingSize)
	}
	if got := recent[len(recent)-1].Fields["step"]; got != traceRingSize+9 {
		t.Fatalf("last ring event step = %v, want %d", got, traceRingSize+9)
	}
	// The subscriber channel holds 256 and then drops; it must have
	// received the first 256 events without blocking Emit.
	ev := <-ch
	if ev.Name != "core.step" || ev.Fields["step"] != 0 {
		t.Fatalf("first subscribed event = %+v", ev)
	}
	cancel()
	cancel() // double-cancel must not panic
}

// TestSubscribeSeam: an event emitted before Subscribe is in its snapshot
// and not on its channel, one emitted after is on the channel and not in
// the snapshot — /trace, which writes both, sends every event once.
func TestSubscribeSeam(t *testing.T) {
	tr := NewTracer()
	start := time.Now()
	for i := 0; i < 3; i++ {
		tr.Emit("before", start, map[string]any{"i": i})
	}
	recent, ch, cancel := tr.Subscribe()
	for i := 0; i < 3; i++ {
		tr.Emit("after", start, map[string]any{"i": i})
	}
	cancel()
	var live []Event
	for ev := range ch {
		live = append(live, ev)
	}
	for _, got := range []struct {
		name   string
		events []Event
	}{{"before", recent}, {"after", live}} {
		if len(got.events) != 3 {
			t.Fatalf("%d events %s subscribing, want 3: %+v", len(got.events), got.name, got.events)
		}
		for i, ev := range got.events {
			if ev.Name != got.name || ev.Fields["i"] != i {
				t.Fatalf("event %d %s subscribing = %+v", i, got.name, ev)
			}
		}
	}
}

func TestHandlerMetricsAndTrace(t *testing.T) {
	tel := New()
	tel.Registry.Counter("fubar_h_total", "h").Add(7)
	tel.Tracer.Emit("scenario.epoch", time.Now(), map[string]any{"epoch": 1})
	srv := httptest.NewServer(Handler(tel))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := res.Body.Read(body)
	res.Body.Close()
	if !strings.Contains(string(body[:n]), "fubar_h_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", body[:n])
	}
	if err := CheckExposition(string(body[:n])); err != nil {
		t.Fatalf("/metrics exposition invalid: %v", err)
	}

	// /trace with an immediate disconnect still yields the ring dump.
	res2, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 1<<12)
	n2, _ := res2.Body.Read(line)
	res2.Body.Close()
	var ev Event
	first := strings.SplitN(string(line[:n2]), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &ev); err != nil {
		t.Fatalf("trace line not JSON: %v (%q)", err, first)
	}
	if ev.Name != "scenario.epoch" {
		t.Fatalf("trace event name = %q", ev.Name)
	}
}

// TestTelemetryServerBounded pins the bounds every command's telemetry and
// daemon listener shares: without the header and idle timeouts a peer that
// never finishes its headers holds a connection for the life of the run, and
// with a write timeout /trace and a streamed replay would be cut mid-stream.
func TestTelemetryServerBounded(t *testing.T) {
	srv := NewServer(nil)
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("telemetry server unbounded: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("telemetry server would cut a stream: write %v, read %v", srv.WriteTimeout, srv.ReadTimeout)
	}
}
