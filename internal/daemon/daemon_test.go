package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fubar/internal/core"
	"fubar/internal/scenario"
	"fubar/internal/telemetry"
	"fubar/internal/topology"
	"fubar/internal/traffic"
)

// fakeController is a Controller with scripted behavior, so the server
// plumbing (routing, gating, scheduling, streaming, drain) is testable
// without optimizing anything.
type fakeController struct {
	inFlight   atomic.Int32 // concurrent method entries; must never pass 1
	maxFlight  atomic.Int32
	closed     atomic.Bool
	optimizeCh chan struct{} // non-nil: Optimize blocks until closed or ctx done
	epochDelay time.Duration
	lastEpoch  atomic.Int32 // last epoch index yielded by Replay*
	ctxErr     atomic.Value // error the replay loop saw on its context
}

func (f *fakeController) enter() func() {
	n := f.inFlight.Add(1)
	for {
		m := f.maxFlight.Load()
		if n <= m || f.maxFlight.CompareAndSwap(m, n) {
			break
		}
	}
	return func() { f.inFlight.Add(-1) }
}

func (f *fakeController) Optimize(ctx context.Context) (*core.Solution, error) {
	defer f.enter()()
	if f.optimizeCh != nil {
		select {
		case <-f.optimizeCh:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return &core.Solution{Utility: 1.5, InitialUtility: 1.0, Steps: 3}, nil
}

func (f *fakeController) replay(ctx context.Context, sc scenario.Scenario) iter.Seq2[scenario.EpochResult, error] {
	return func(yield func(scenario.EpochResult, error) bool) {
		defer f.enter()()
		for i := 0; i < sc.Epochs; i++ {
			if f.epochDelay > 0 {
				select {
				case <-time.After(f.epochDelay):
				case <-ctx.Done():
				}
			}
			if err := ctx.Err(); err != nil {
				f.ctxErr.Store(err)
				yield(scenario.EpochResult{}, fmt.Errorf("replay: %w", err))
				return
			}
			f.lastEpoch.Store(int32(i))
			if !yield(scenario.EpochResult{Epoch: i, Utility: 1, Steps: 1}, nil) {
				return
			}
		}
	}
}

func (f *fakeController) Replay(ctx context.Context, sc scenario.Scenario) iter.Seq2[scenario.EpochResult, error] {
	return f.replay(ctx, sc)
}

func (f *fakeController) ReplayClosedLoop(ctx context.Context, sc scenario.Scenario) iter.Seq2[scenario.EpochResult, error] {
	return f.replay(ctx, sc)
}

func (f *fakeController) Trajectory() scenario.Trajectory {
	return scenario.Trajectory{Family: "fake", Epochs: 1, Points: []scenario.TrajectoryPoint{{Epochs: 1}}}
}

func (f *fakeController) Close() error {
	f.closed.Store(true)
	return nil
}

const testTopology = `topology tri
link a b 10Mbps 2ms
link b c 10Mbps 2ms
link a c 10Mbps 3ms
`

// newTestServer builds a Server whose factory hands out fakes (recorded
// in order) and an httptest front end.
func newTestServer(t testing.TB, cfg Config, mk func() *fakeController) (*Server, *httptest.Server, *[]*fakeController) {
	t.Helper()
	var fakes []*fakeController
	if mk == nil {
		mk = func() *fakeController { return &fakeController{} }
	}
	cfg.Factory = func(topo *topology.Topology, mat *traffic.Matrix, tc TenantConfig) (Controller, error) {
		if topo == nil || mat == nil || tc.Telemetry == nil {
			t.Fatalf("factory got nil inputs: %v %v %v", topo, mat, tc.Telemetry)
		}
		f := mk()
		fakes = append(fakes, f)
		return f, nil
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv, ts, &fakes
}

func mustPost(t *testing.T, url string, body any, wantStatus int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}

func TestTenantLifecycle(t *testing.T) {
	_, ts, fakes := newTestServer(t, Config{MaxWorkers: 8}, nil)

	raw := mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "alpha", Topology: testTopology, Workers: 2}, http.StatusCreated)
	var info TenantInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	// Links counts directed links: each bidirectional "link" line is two.
	if info.ID != "alpha" || info.Nodes != 3 || info.Links != 6 || info.Aggregates == 0 || info.Workers != 2 {
		t.Fatalf("create: %+v", info)
	}
	// Duplicate ID refused; invalid ID refused; bad instance refused.
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "alpha", Topology: testTopology}, http.StatusBadRequest)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "no/slash", Topology: testTopology}, http.StatusBadRequest)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{}, http.StatusBadRequest)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{Preset: "nonsense"}, http.StatusBadRequest)

	// Generated IDs fill in.
	raw = mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{Topology: testTopology}, http.StatusCreated)
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.ID == "alpha" {
		t.Fatalf("generated id: %+v", info)
	}

	var list TenantList
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Tenants) != 2 {
		t.Fatalf("list: %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/alpha", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if !(*fakes)[0].closed.Load() {
		t.Error("delete did not Close the controller")
	}
	// Deleted tenants 404.
	resp, err = http.Get(ts.URL + "/v1/tenants/alpha")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get deleted: status %d", resp.StatusCode)
	}
}

func TestOptimizeSerializedPerTenant(t *testing.T) {
	_, ts, fakes := newTestServer(t, Config{MaxWorkers: 8}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology, Workers: 2}, http.StatusCreated)

	const calls = 8
	errc := make(chan error, calls)
	for range calls {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/tenants/a/optimize", "application/json", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errc <- err
		}()
	}
	for range calls {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if m := (*fakes)[0].maxFlight.Load(); m != 1 {
		t.Fatalf("controller saw %d concurrent calls, want 1", m)
	}
}

// TestOptimizeChunkedEmptyBody sends an optimize whose body is chunked
// and empty — one zero-length chunk, so the request's length is unknown
// rather than zero — as a raw request: it is an empty request, not a bad
// body.
func TestOptimizeChunkedEmptyBody(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxWorkers: 8}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := "POST /v1/tenants/a/optimize HTTP/1.1\r\nHost: daemon\r\n" +
		"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n" +
		"Connection: close\r\n\r\n0\r\n\r\n"
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked empty optimize: status %d: %s", resp.StatusCode, body)
	}
	// A truncated body is still refused.
	bad, err := http.Post(ts.URL+"/v1/tenants/a/optimize", "application/json", strings.NewReader(`{"timeout_ms":`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated optimize body: status %d, want %d", bad.StatusCode, http.StatusBadRequest)
	}
}

// TestOptimizeTimeoutBounded: a negative timeout_ms, or one whose
// milliseconds overflow a time.Duration, is a 400 that never reaches the
// controller; the largest one a time.Duration holds is a deadline.
func TestOptimizeTimeoutBounded(t *testing.T) {
	_, ts, fakes := newTestServer(t, Config{}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)
	for _, ms := range []int64{-1, 9223372036855, 10000000000000} {
		mustPost(t, ts.URL+"/v1/tenants/a/optimize", OptimizeRequest{TimeoutMs: ms}, http.StatusBadRequest)
	}
	if (*fakes)[0].maxFlight.Load() != 0 {
		t.Fatalf("a refused optimize reached the controller")
	}
	mustPost(t, ts.URL+"/v1/tenants/a/optimize", OptimizeRequest{TimeoutMs: 9223372036854}, http.StatusOK)
}

func TestReplayStreamAndDisconnect(t *testing.T) {
	_, ts, fakes := newTestServer(t, Config{}, func() *fakeController {
		return &fakeController{epochDelay: 2 * time.Millisecond}
	})
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)

	// Full stream: every epoch arrives, in order, as JSONL.
	resp, err := http.Get(ts.URL + "/v1/tenants/a/replay?scenario=diurnal&epochs=5")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for sc.Scan() {
		var er scenario.EpochResult
		if err := json.Unmarshal(sc.Bytes(), &er); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if er.Epoch != n {
			t.Fatalf("line %d has epoch %d", n, er.Epoch)
		}
		n++
	}
	resp.Body.Close()
	if n != 5 {
		t.Fatalf("streamed %d epochs, want 5", n)
	}

	// Disconnect mid-stream: the epoch loop's context must cancel.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/tenants/a/replay?scenario=diurnal&epochs=100000", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	f := (*fakes)[0]
	deadline := time.Now().Add(5 * time.Second)
	for f.ctxErr.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replay loop never observed the disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	if last := f.lastEpoch.Load(); last >= 99999 {
		t.Fatalf("replay ran to completion (epoch %d) despite disconnect", last)
	}

	// Bad parameters 400 without touching the controller.
	for _, q := range []string{"scenario=nope&epochs=3", "scenario=diurnal&epochs=0", "scenario=diurnal&epochs=3&mode=weird"} {
		resp, err := http.Get(ts.URL + "/v1/tenants/a/replay?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestReplayEpochsBounded: a replay asking for more than maxReplayEpochs
// epochs is refused with 400 before its timeline is built — diurnal's two
// events per epoch made epochs=5000000 allocate 3.7 GiB before the bound —
// so the handler allocates next to nothing and the controller is never
// entered.
func TestReplayEpochsBounded(t *testing.T) {
	srv, ts, fakes := newTestServer(t, Config{}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)
	h := srv.Handler()
	for _, n := range []int{maxReplayEpochs + 1, 1000000000} {
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/tenants/a/replay?scenario=diurnal&epochs=%d", n), nil)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("epochs=%d: status %d, want 400: %s", n, rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("epochs=%d: the refused request allocated %d bytes, want under 1 MiB", n, alloc)
		}
	}
	if f := (*fakes)[0]; f.maxFlight.Load() != 0 {
		t.Error("a refused replay reached the controller")
	}
}

// TestCreateInstanceBounded: a create body whose matrix would exceed
// maxAggregates — a sample that large, or a topology whose full matrix is —
// or that asks for a negative count is a 400 before anything is generated:
// the handler allocates under 1 MiB and the factory never runs.
func TestCreateInstanceBounded(t *testing.T) {
	srv, _, fakes := newTestServer(t, Config{}, nil)
	var line strings.Builder // a 257-node chain: 66,049 aggregates in full
	line.WriteString("topology line\n")
	for i := range 256 {
		fmt.Fprintf(&line, "link n%d n%d 10Mbps 1ms\n", i, i+1)
	}
	for _, req := range []CreateTenantRequest{
		{Topology: testTopology, Aggregates: maxAggregates + 1},
		{Topology: testTopology, Aggregates: 2000000000},
		{Topology: line.String()},
		{Topology: testTopology, Aggregates: -1},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("aggregates=%d, %d-byte topology: status %d, want 400: %s", req.Aggregates, len(req.Topology), rec.Code, rec.Body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("aggregates=%d, %d-byte topology: the refused request allocated %d bytes, want under 1 MiB", req.Aggregates, len(req.Topology), alloc)
		}
	}
	if len(*fakes) != 0 {
		t.Errorf("a refused create reached the factory %d times", len(*fakes))
	}
	// benchmark/'s daemon tenants: 6-node rings, 36 aggregates in full.
	ring := "topology ring\n"
	for i := range 6 {
		ring += fmt.Sprintf("link r%d r%d 10Mbps 1ms\n", i, (i+1)%6)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", strings.NewReader(`{"topology": `+strconv.Quote(ring)+`}`)))
	var info TenantInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); rec.Code != http.StatusCreated || err != nil || info.Aggregates != 36 {
		t.Errorf("6-node ring: status %d: %s", rec.Code, rec.Body)
	}
}

// TestCreateRefusesNegativeCapacity: a negative capacity_mbps is a 400,
// with an inline topology or a preset, and so is a negative worker budget,
// and so is any aggregates or capacity_mbps with a preset, which brings its
// own matrix and capacities; none reaches the factory.
func TestCreateRefusesNegativeCapacity(t *testing.T) {
	srv, _, fakes := newTestServer(t, Config{}, nil)
	for _, req := range []CreateTenantRequest{
		{Topology: testTopology, CapacityMbps: -1},
		{Preset: "provisioned", CapacityMbps: -0.5},
		{Topology: testTopology, Workers: -3},
		{Preset: "provisioned", Aggregates: -5},
		{Preset: "provisioned", Aggregates: 10},
		{Preset: "provisioned", CapacityMbps: 50},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
	}
	if len(*fakes) != 0 {
		t.Errorf("a refused create reached the factory %d times", len(*fakes))
	}
}

// FuzzCreateRequest posts arbitrary bodies to the create handler: each is
// answered 201 or 4xx, never with a panic or a 5xx. A tenant it creates is
// deleted again.
func FuzzCreateRequest(f *testing.F) {
	for _, body := range []string{
		`{"topology": ` + strconv.Quote(testTopology) + `, "aggregates": 65537}`,
		`{"topology": ` + strconv.Quote(testTopology) + `, "aggregates": 2000000000}`,
		`{"topology": ` + strconv.Quote(testTopology) + `, "aggregates": -1}`,
		`{"topology": ` + strconv.Quote(testTopology) + `, "preset": "provisioned"}`,
		`{"topology": "topology broken\nlink a 10Mbps"}`,
		`{"preset": "no-such-preset"}`,
		`{"preset": "provisioned", "aggregates": -5, "capacity_mbps": 50}`,
		`{"topology": ` + strconv.Quote(testTopology) + `, "aggregates": 4, "capacity_mbps": 1e300, "workers": -3}`,
	} {
		f.Add([]byte(body))
	}
	srv, _, _ := newTestServer(f, Config{}, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tenants", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusCreated:
			var info TenantInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 with body %q: %v", rec.Body, err)
			}
			if err := srv.remove(info.ID, 0); err != nil {
				t.Fatal(err)
			}
		case rec.Code < 400 || rec.Code >= 500:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

func TestShutdownDrainsInFlight(t *testing.T) {
	blocker := make(chan struct{})
	srv, ts, fakes := newTestServer(t, Config{}, func() *fakeController {
		return &fakeController{optimizeCh: blocker}
	})
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)

	started := make(chan struct{})
	finished := make(chan int, 1)
	go func() {
		close(started)
		resp, err := http.Post(ts.URL+"/v1/tenants/a/optimize", "application/json", nil)
		if err != nil {
			finished <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		finished <- resp.StatusCode
	}()
	<-started
	// Wait until the optimize is actually inside the controller.
	deadline := time.Now().Add(5 * time.Second)
	for (*fakes)[0].inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("optimize never started")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The blocked optimize was cancelled, not stranded.
	select {
	case code := <-finished:
		if code == http.StatusOK {
			t.Error("in-flight optimize reported success after drain-by-cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight optimize never finished after shutdown")
	}
	if !(*fakes)[0].closed.Load() {
		t.Error("shutdown did not Close the controller")
	}
	// Post-shutdown requests are refused.
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
	// Idempotent.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestSchedulerBudgets(t *testing.T) {
	tel := telemetry.New()
	s := newScheduler(4, tel.Daemon())

	// Clamping: oversized budgets cap at the global limit.
	n, err := s.acquire(context.Background(), 99)
	if err != nil || n != 4 {
		t.Fatalf("acquire clamped: n=%d err=%v", n, err)
	}

	// A second acquire must wait until release.
	got := make(chan int, 1)
	go func() {
		m, err := s.acquire(context.Background(), 2)
		if err != nil {
			m = -1
		}
		got <- m
	}()
	select {
	case m := <-got:
		t.Fatalf("acquire succeeded (%d tokens) while pool exhausted", m)
	case <-time.After(20 * time.Millisecond):
	}
	s.release(n)
	select {
	case m := <-got:
		if m != 2 {
			t.Fatalf("waiter got %d tokens", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter starved after release")
	}

	// Cancellation unblocks a waiter with its context error.
	s.release(2) // the waiter's tokens
	if _, err := s.acquire(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.acquire(ctx, 3)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled waiter acquired")
	}
	s.release(3)
	if s.inUse != 0 {
		t.Fatalf("tokens leaked: %d in use", s.inUse)
	}
}

func TestWriteEpochs(t *testing.T) {
	mk := func(n int, fail error) func(func(scenario.EpochResult, error) bool) {
		return func(yield func(scenario.EpochResult, error) bool) {
			for i := 0; i < n; i++ {
				if !yield(scenario.EpochResult{Epoch: i, Utility: float64(i)}, nil) {
					return
				}
			}
			if fail != nil {
				yield(scenario.EpochResult{}, fail)
			}
		}
	}

	var buf bytes.Buffer
	n, err := WriteEpochs(&buf, mk(3, nil))
	if err != nil || n != 3 {
		t.Fatalf("clean stream: n=%d err=%v", n, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %q", lines)
	}

	buf.Reset()
	n, err = WriteEpochs(&buf, mk(2, fmt.Errorf("boom")))
	if err == nil || n != 2 {
		t.Fatalf("failed stream: n=%d err=%v", n, err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("failed stream lines: %q", lines)
	}
	var er ErrorResponse
	if err := json.Unmarshal([]byte(lines[2]), &er); err != nil || er.Error != "boom" {
		t.Fatalf("error line %q: %v", lines[2], err)
	}
}

func TestPerTenantMetricsIsolation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "b", Topology: testTopology, Seed: 9}, http.StatusCreated)

	// Only tenant a replays; its registry (and only its) sees epochs.
	resp, err := http.Get(ts.URL + "/v1/tenants/a/replay?scenario=diurnal&epochs=4")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	scrape := func(id string) string {
		resp, err := http.Get(ts.URL + "/v1/tenants/" + id + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if err := telemetry.CheckExposition(string(b)); err != nil {
			t.Fatalf("tenant %s exposition: %v", id, err)
		}
		return string(b)
	}
	// Distinct registries: each tenant's scrape carries its own
	// identity gauges, nothing from its sibling.
	if body := scrape("a"); !strings.Contains(body, "fubar_tenant_seed 0") {
		t.Errorf("tenant a scrape lacks its seed gauge:\n%s", body)
	}
	if body := scrape("b"); !strings.Contains(body, "fubar_tenant_seed 9") {
		t.Errorf("tenant b scrape lacks its seed gauge:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.CheckExposition(string(body)); err != nil {
		t.Fatalf("daemon exposition: %v", err)
	}
	for _, want := range []string{
		"fubar_daemon_tenants 2",
		"fubar_daemon_tenants_created_total 2",
		"fubar_daemon_stream_epochs_total 4",
		"fubar_daemon_replays_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("daemon metrics missing %q", want)
		}
	}
}

func TestTrajectoryEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, nil)
	mustPost(t, ts.URL+"/v1/tenants", CreateTenantRequest{ID: "a", Topology: testTopology}, http.StatusCreated)
	resp, err := http.Get(ts.URL + "/v1/tenants/a/trajectory")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traj scenario.Trajectory
	if err := json.NewDecoder(resp.Body).Decode(&traj); err != nil {
		t.Fatal(err)
	}
	if traj.Family != "fake" || len(traj.Points) != 1 {
		t.Fatalf("trajectory: %+v", traj)
	}
}
