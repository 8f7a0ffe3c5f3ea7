package daemon

import (
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"fubar/internal/telemetry"
)

// scrape GETs a Prometheus exposition, checks it parses, and returns the
// value of every series.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.CheckExposition(string(raw)); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("%s: %q: %v", url, line, err)
		}
		out[name] = v
	}
	return out
}

// TestDaemonHealthGauges reads each health gauge back from the daemon's
// /metrics, and a tenant's oldest-request age from its own, while one
// tenant's optimize is held in flight and a second tenant's waits for the
// worker token it holds.
func TestDaemonHealthGauges(t *testing.T) {
	blocker := make(chan struct{})
	_, ts, fakes := newTestServer(t, Config{MaxWorkers: 1}, func() *fakeController {
		return &fakeController{optimizeCh: blocker}
	})
	defer close(blocker)
	for _, id := range []string{"a", "b"} {
		mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: id, Topology: testTopology}, http.StatusCreated)
	}
	idle := scrape(t, ts.URL+"/metrics")
	if idle["fubar_daemon_oldest_request_seconds"] != 0 || idle["fubar_daemon_queue_depth"] != 0 {
		t.Fatalf("idle daemon: oldest request %v s, queue depth %v", idle["fubar_daemon_oldest_request_seconds"], idle["fubar_daemon_queue_depth"])
	}
	for _, id := range []string{"a", "b"} {
		go func() {
			if resp, err := http.Post(ts.URL+"/v1/tenants/"+id+"/optimize", "application/json", nil); err == nil {
				resp.Body.Close()
			}
		}()
		// a holds the one worker token before b asks for it.
		deadline := time.Now().Add(5 * time.Second)
		for id == "a" && (*fakes)[0].inFlight.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("a's optimize never started")
			}
			time.Sleep(time.Millisecond)
		}
	}
	const held = 50 * time.Millisecond
	time.Sleep(held)
	runtime.GC() // the live heap is the last collection's: 0 before the first
	var got map[string]float64
	deadline := time.Now().Add(5 * time.Second)
	for got = scrape(t, ts.URL+"/metrics"); got["fubar_daemon_queue_depth"] != 1; got = scrape(t, ts.URL+"/metrics") {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %v, want b's optimize waiting", got["fubar_daemon_queue_depth"])
		}
		time.Sleep(time.Millisecond)
	}
	for name, ok := range map[string]bool{
		"fubar_daemon_goroutines":                got["fubar_daemon_goroutines"] >= 4,
		"fubar_daemon_heap_live_bytes":           got["fubar_daemon_heap_live_bytes"] > 0,
		"fubar_daemon_gc_cpu_fraction":           got["fubar_daemon_gc_cpu_fraction"] >= 0 && got["fubar_daemon_gc_cpu_fraction"] <= 1,
		"fubar_daemon_sched_latency_p99_seconds": got["fubar_daemon_sched_latency_p99_seconds"] > 0 && got["fubar_daemon_sched_latency_p99_seconds"] < 10,
		"fubar_daemon_oldest_request_seconds":    got["fubar_daemon_oldest_request_seconds"] >= held.Seconds(),
	} {
		if _, present := got[name]; !present || !ok {
			t.Errorf("%s = %v (present %v): out of range", name, got[name], present)
		}
	}
	a, b := scrape(t, ts.URL+"/v1/tenants/a/metrics"), scrape(t, ts.URL+"/v1/tenants/b/metrics")
	if age := a["fubar_tenant_oldest_request_seconds"]; age < held.Seconds() || age > got["fubar_daemon_oldest_request_seconds"]+1 {
		t.Errorf("tenant a's oldest request is %v s old, want at least %v", age, held.Seconds())
	}
	if age := b["fubar_tenant_oldest_request_seconds"]; age <= 0 || age > a["fubar_tenant_oldest_request_seconds"] {
		t.Errorf("tenant b's oldest request is %v s old, want in (0, a's %v]", age, a["fubar_tenant_oldest_request_seconds"])
	}
}

// TestTenantPinAllocatesNothing: timing a request in flight — its pin on
// the tenant, taken and released — allocates nothing once the tenant has
// had as many requests in flight at once.
func TestTenantPinAllocatesNothing(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)
	if allocs := testing.AllocsPerRun(100, func() {
		p, ok := srv.acquire("a")
		if !ok {
			t.Fatal("no tenant a")
		}
		p.release()
	}); allocs != 0 {
		t.Fatalf("a pin allocated %.1f objects, want 0", allocs)
	}
}
