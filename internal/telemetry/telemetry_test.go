package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime/pprof"
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
		tr.Emit("core.step", start, Span{ID: tr.NewID()}, Int(KeyStep, i))
	}
	recent, _, cancelLate := tr.Subscribe()
	cancelLate()
	if len(recent) != traceRingSize {
		t.Fatalf("recent = %d events, want %d", len(recent), traceRingSize)
	}
	if got, _ := intAttr(recent[len(recent)-1], KeyStep); got != traceRingSize+9 {
		t.Fatalf("last ring event step = %v, want %d", got, traceRingSize+9)
	}
	// The subscriber channel holds 256 and then drops; it must have
	// received the first 256 events without blocking Emit.
	ev := <-ch
	if step, _ := intAttr(ev, KeyStep); ev.Name != "core.step" || step != 0 || ev.ID != 1 {
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
		tr.Emit("before", start, Span{}, Int(KeyStep, i))
	}
	recent, ch, cancel := tr.Subscribe()
	for i := 0; i < 3; i++ {
		tr.Emit("after", start, Span{}, Int(KeyStep, i))
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
			if step, _ := intAttr(ev, KeyStep); ev.Name != got.name || step != i {
				t.Fatalf("event %d %s subscribing = %+v", i, got.name, ev)
			}
		}
	}
}

func TestHandlerMetricsAndTrace(t *testing.T) {
	tel := New()
	tel.Registry.Counter("fubar_h_total", "h").Add(7)
	tel.Tracer.Emit("scenario.epoch", time.Now(), Span{ID: 1}, Int(KeyEpoch, 1))
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

// TestEmitAllocatesNothing: an emit copies a fixed-size record into the
// ring and onto each subscriber's channel, and takes no allocation for
// its attributes — what lets a traced replay epoch cost what an
// untraced one does.
func TestEmitAllocatesNothing(t *testing.T) {
	tr := NewTracer()
	_, _, cancel := tr.Subscribe()
	defer cancel()
	start := time.Now()
	parent := Span{ID: tr.NewID(), Req: 7}
	allocs := testing.AllocsPerRun(2000, func() {
		tr.Emit("core.step", start, parent.Child(tr.NewID()),
			Int(KeyStep, 1), Float(KeyUtility, 0.5), Int(KeyCongested, 2), Int(KeyEscalation, 0),
			Int(KeyCandidates, 9), Int(KeyRefuted, 3), Int(KeyRefutedLevel, 1), Bool(KeyWarmStart, true))
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v objects per call, want 0", allocs)
	}
}

// TestEventJSON pins the /trace line of an event: the keys ts, name and
// dur, the span's id, parent and req, and fields as an object in key
// order, integers, floats and booleans as JSON numbers and booleans; an
// event without attributes has no fields key.
func TestEventJSON(t *testing.T) {
	ev := Event{TimeUnixNano: 1700000000000000000, Name: "scenario.epoch", DurNano: 1500, Span: Span{ID: 3, Parent: 2, Req: 9}}
	for i, a := range []Attr{Int(KeyEpoch, 4), Float(KeyUtility, 0.8125), Int(KeySteps, -1), Bool(KeyWarmStart, false), Int(KeyFlowMods, 12)} {
		ev.Attrs.keys[i], ev.Attrs.bits[i] = a.key, a.bits
	}
	got, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"ts":1700000000000000000,"name":"scenario.epoch","dur":1500,"id":3,"parent":2,"req":9,"fields":{"epoch":4,"flow_mods":12,"steps":-1,"utility":0.8125,"warm_start":false}}`
	if string(got) != want {
		t.Errorf("event JSON\n got %s\nwant %s", got, want)
	}
	bare, err := json.Marshal(Event{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ts":0,"name":"x","dur":0,"id":0,"parent":0,"req":0}`; string(bare) != want {
		t.Errorf("attribute-less event JSON\n got %s\nwant %s", bare, want)
	}
}

// TestSpanContext: a SpanContext answers SpanOf with its span and every
// other key, deadline and cancellation from the context it wraps, and
// rebinding it allocates nothing.
func TestSpanContext(t *testing.T) {
	if got := SpanOf(context.Background()); got != (Span{}) {
		t.Fatalf("SpanOf(Background) = %+v", got)
	}
	type key struct{}
	outer := WithSpan(context.WithValue(context.Background(), key{}, "v"), Span{ID: 5, Req: 2})
	if got := SpanOf(outer); got != (Span{ID: 5, Req: 2}) {
		t.Fatalf("SpanOf(WithSpan) = %+v", got)
	}
	inner, cancel := context.WithCancel(outer)
	var sc SpanContext
	allocs := testing.AllocsPerRun(100, func() {
		sc = SpanContext{Context: inner, Span: SpanOf(inner).Child(6)}
		if SpanOf(&sc).ID != 6 {
			t.Fatal("rebound span not seen")
		}
	})
	if allocs != 0 {
		t.Errorf("rebinding a SpanContext allocates %v objects", allocs)
	}
	if got := SpanOf(&sc); got != (Span{ID: 6, Parent: 5, Req: 2}) {
		t.Errorf("SpanOf(SpanContext) = %+v", got)
	}
	if sc.Value(key{}) != "v" {
		t.Error("SpanContext hides its context's values")
	}
	cancel()
	if sc.Err() == nil {
		t.Error("SpanContext does not see its context's cancellation")
	}
}

// TestHandlesBuiltOnce: every caller of Core, Scenario and Ctrlplane —
// concurrent ones included — gets the same handles, and asking again
// allocates nothing.
func TestHandlesBuiltOnce(t *testing.T) {
	tel := New()
	var wg sync.WaitGroup
	cores := make([]*CoreMetrics, 8)
	scens := make([]*ScenarioMetrics, 8)
	cps := make([]*CtrlplaneMetrics, 8)
	for i := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cores[i], scens[i], cps[i] = tel.Core(), tel.Scenario(), tel.Ctrlplane()
		}()
	}
	wg.Wait()
	for i := range cores {
		if cores[i] == nil || cores[i] != tel.Core() || scens[i] != tel.Scenario() || cps[i] != tel.Ctrlplane() {
			t.Fatalf("caller %d got other handles", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tel.Core(); tel.Scenario(); tel.Ctrlplane() }); allocs != 0 {
		t.Errorf("asking for built handles allocates %v objects", allocs)
	}
	var off *Telemetry
	if off.Core() != nil || off.Scenario() != nil || off.Ctrlplane() != nil {
		t.Error("a nil Telemetry hands out handles")
	}
}

// TestProfileLabels: each phase's label set carries the run's labels and
// the phase, and switching to one allocates nothing.
func TestProfileLabels(t *testing.T) {
	l := NewProfileLabels("tenant", "a", "kind", "replay")
	for p, name := range phaseNames {
		ctx := l.phases[p]
		for k, want := range map[string]string{"tenant": "a", "kind": "replay", "phase": name} {
			if got, _ := pprof.Label(ctx, k); got != want {
				t.Errorf("phase %s: label %s = %q, want %q", name, k, got, want)
			}
		}
	}
	if got := ProfileLabelsOf(WithProfileLabels(context.Background(), l)); got != l {
		t.Error("ProfileLabelsOf does not return the labels WithProfileLabels stored")
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Phase(PhaseOptimize); l.Enter() }); allocs != 0 {
		t.Errorf("switching labels allocates %v objects", allocs)
	}
	pprof.SetGoroutineLabels(context.Background())
	var none *ProfileLabels
	none.Enter()
	none.Phase(PhaseSettle)
}

// intAttr returns ev's integer attribute k and whether ev carries it.
func intAttr(ev Event, k IntKey) (int, bool) {
	for i, key := range ev.Attrs.keys {
		if key == slot(kindInt, uint8(k)) {
			return int(int64(ev.Attrs.bits[i])), true
		}
	}
	return 0, false
}

// promFixture is a registry with every kind of series the exposition
// writes: labelled counter families, a counter and gauges alone, gauges at
// awkward values and a histogram with observations in every bucket.
func promFixture() *Registry {
	r := NewRegistry()
	r.Counter(`fubar_fix_requests_total{kind="optimize"}`, "requests by kind").Add(12)
	r.Counter(`fubar_fix_requests_total{kind="replay"}`, "requests by kind").Add(3)
	r.Counter("fubar_fix_plain_total", "").Inc()
	r.Gauge("fubar_fix_ratio", "a ratio").Set(0.3)
	r.Gauge("fubar_fix_big", "a large gauge").Set(1.5e21)
	r.Gauge("fubar_fix_tiny", "").Set(-3e-7)
	h := r.Histogram("fubar_fix_seconds", "a histogram", []float64{0.0001, 0.25, 1, 30})
	for _, v := range []float64{0.00005, 0.1, 0.2, 0.5, 2, 45, 1e6} {
		h.Observe(v)
	}
	r.Counter(`fubar_fix_hits_total{result="hit",tier="a"}`, "hits").Add(7)
	r.Gauge("fubar_fix_zero", "a gauge at zero")
	return r
}

// TestWritePromPinned pins the exposition of promFixture byte for byte.
func TestWritePromPinned(t *testing.T) {
	const want = `# HELP fubar_fix_requests_total requests by kind
# TYPE fubar_fix_requests_total counter
fubar_fix_requests_total{kind="optimize"} 12
fubar_fix_requests_total{kind="replay"} 3
# TYPE fubar_fix_plain_total counter
fubar_fix_plain_total 1
# HELP fubar_fix_ratio a ratio
# TYPE fubar_fix_ratio gauge
fubar_fix_ratio 0.3
# HELP fubar_fix_big a large gauge
# TYPE fubar_fix_big gauge
fubar_fix_big 1.5e+21
# TYPE fubar_fix_tiny gauge
fubar_fix_tiny -3e-07
# HELP fubar_fix_seconds a histogram
# TYPE fubar_fix_seconds histogram
fubar_fix_seconds_bucket{le="0.0001"} 1
fubar_fix_seconds_bucket{le="0.25"} 3
fubar_fix_seconds_bucket{le="1"} 4
fubar_fix_seconds_bucket{le="30"} 5
fubar_fix_seconds_bucket{le="+Inf"} 7
fubar_fix_seconds_sum 1.00004780005e+06
fubar_fix_seconds_count 7
# HELP fubar_fix_hits_total hits
# TYPE fubar_fix_hits_total counter
fubar_fix_hits_total{result="hit",tier="a"} 7
# HELP fubar_fix_zero a gauge at zero
# TYPE fubar_fix_zero gauge
fubar_fix_zero 0
`
	var b strings.Builder
	if err := promFixture().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Fatalf("exposition changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := CheckExposition(want); err != nil {
		t.Fatalf("pinned exposition fails CheckExposition: %v", err)
	}
}

// TestWarmScrapeAllocatesNothing: a scrape appends its exposition into the
// buffer the registry keeps, so once one scrape has grown it, the next —
// of a tenant's registry, with every handle bundle a tenant takes, or of
// promFixture — allocates nothing.
func TestWarmScrapeAllocatesNothing(t *testing.T) {
	tenant := New()
	tenant.Core()
	tenant.Scenario()
	tenant.Ctrlplane()
	tenant.Tenant()
	for name, r := range map[string]*Registry{"tenant": tenant.Registry, "fixture": promFixture()} {
		if err := r.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = r.WriteProm(io.Discard) }); allocs != 0 {
			t.Errorf("%s: a warm scrape allocated %.1f objects, want 0", name, allocs)
		}
	}
}
