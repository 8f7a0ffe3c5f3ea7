package fubar_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"fubar"
)

// tracedDaemon stands up a Session-backed daemon, as NewDaemon's own
// factory builds it, whose tenants' telemetry the test can read, logging
// JSON records into logs.
func tracedDaemon(t *testing.T, logs io.Writer) (*httptest.Server, func() []*fubar.Telemetry) {
	t.Helper()
	var mu sync.Mutex
	var tels []*fubar.Telemetry
	srv, err := fubar.NewDaemon(fubar.DaemonConfig{
		MaxWorkers: 2,
		Logger:     slog.New(slog.NewJSONHandler(logs, nil)),
		Factory: func(topo *fubar.Topology, mat *fubar.Matrix, tc fubar.DaemonTenantConfig) (fubar.DaemonController, error) {
			mu.Lock()
			tels = append(tels, tc.Telemetry)
			mu.Unlock()
			return fubar.NewSession(topo, mat, fubar.WithWorkers(tc.Workers), fubar.WithTelemetry(tc.Telemetry))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return ts, func() []*fubar.Telemetry {
		mu.Lock()
		defer mu.Unlock()
		return append([]*fubar.Telemetry(nil), tels...)
	}
}

// daemonDo sends one request and fails the test unless it answers want.
func daemonDo(t *testing.T, method, url string, want int) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
	}
}

// TestDaemonRequestIDs: every request the daemon serves gets an ID of its
// own, its slog records carry it as "req", and every span it causes — the
// optimize root and its steps, a replay's epochs and their optimizer
// spans — carries it too.
func TestDaemonRequestIDs(t *testing.T) {
	var logs bytes.Buffer
	var logMu sync.Mutex
	ts, tenantTels := tracedDaemon(t, lockedWriter{&logs, &logMu})
	daemonCreateTenant(t, ts.URL, "alpha", 3)
	daemonDo(t, http.MethodPost, ts.URL+"/v1/tenants/alpha/optimize", http.StatusOK)
	daemonDo(t, http.MethodGet, ts.URL+"/v1/tenants/alpha/replay?scenario=diurnal&epochs=3", http.StatusOK)

	reqOf := map[string]uint64{} // log message → its record's request ID
	logMu.Lock()
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Msg string `json:"msg"`
			Req uint64 `json:"req"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		reqOf[rec.Msg] = rec.Req
	}
	logMu.Unlock()
	created, optimized, replayed := reqOf["tenant created"], reqOf["optimize done"], reqOf["replay stream ended"]
	if created == 0 || optimized == 0 || replayed == 0 || created == optimized || optimized == replayed || created == replayed {
		t.Fatalf("request IDs on the log records: create %d, optimize %d, replay %d; want three distinct non-zero IDs", created, optimized, replayed)
	}

	tels := tenantTels()
	if len(tels) != 1 {
		t.Fatalf("%d tenant registries, want 1", len(tels))
	}
	events, _, cancel := tels[0].Tracer.Subscribe()
	cancel()
	byReq := map[uint64]map[string]int{}
	for _, ev := range events {
		if byReq[ev.Req] == nil {
			byReq[ev.Req] = map[string]int{}
		}
		byReq[ev.Req][ev.Name]++
	}
	if opt := byReq[optimized]; opt["session.optimize"] != 1 || opt["core.step"] == 0 || opt["scenario.epoch"] != 0 || len(opt) > 3 {
		t.Errorf("optimize request %d's spans: %v", optimized, opt)
	}
	if rep := byReq[replayed]; rep["scenario.epoch"] != 3 || rep["core.step"]+rep["core.proof"] == 0 || len(rep) > 3 || rep["session.optimize"] != 0 {
		t.Errorf("replay request %d's spans: %v", replayed, rep)
	}
	if len(byReq) != 2 {
		t.Errorf("spans by request ID: %v; want the optimize's and the replay's only", byReq)
	}
}

// lockedWriter serializes writes to w: the daemon logs from its handler
// goroutines.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestDaemonProfileLabels CPU-profiles two tenants' closed-loop replays
// and reads the profile's tags back with go tool pprof: both tenant IDs,
// the run kind, and at least four of the epoch phases must label samples.
// A phase short of samples in one profile gets a longer one, up to 16
// seconds of replays.
func TestDaemonProfileLabels(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run pprof with")
	}
	if testing.Short() {
		t.Skip("profiles seconds of replays")
	}
	topo, err := fubar.RingTopology(6, 3, 600*fubar.Kbps, 1)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := fubar.WriteTopology(&text, topo); err != nil {
		t.Fatal(err)
	}
	ts, _ := tracedDaemon(t, io.Discard)
	tenants := []string{"alpha", "beta"}
	for i, id := range tenants {
		body, _ := json.Marshal(fubar.CreateTenantRequest{ID: id, Topology: text.String(), Seed: int64(i + 1), Workers: 1})
		resp, err := http.Post(ts.URL+"/v1/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, resp.StatusCode)
		}
	}
	var tags map[string]map[string]bool
	for d := 2 * time.Second; ; d *= 2 {
		path := filepath.Join(t.TempDir(), "cpu.pprof")
		profileReplays(t, ts.URL, tenants, path, d)
		out, err := exec.Command(gotool, "tool", "pprof", "-tags", path).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool pprof -tags: %v\n%s", err, out)
		}
		tags = pprofTags(string(out))
		phases := 0
		for _, p := range []string{"settle", "repair", "estimate", "optimize", "publish"} {
			if tags["phase"][p] {
				phases++
			}
		}
		if tags["tenant"]["alpha"] && tags["tenant"]["beta"] && tags["kind"]["closed-loop"] && phases >= 4 {
			t.Logf("%v of replays: tags %v", d, tags)
			return
		}
		if d >= 16*time.Second {
			t.Fatalf("after %v of replays the profile's tags are %v; want tenants alpha and beta, kind closed-loop and four phases\n%s", d, tags, out)
		}
	}
}

// profileReplays CPU-profiles into path closed-loop replays of every tenant
// at once, repeated for about d.
func profileReplays(t *testing.T, base string, tenants []string, path string, d time.Duration) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants))
	deadline := time.Now().Add(d)
	for _, id := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := 1; time.Now().Before(deadline); seed++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/tenants/%s/replay?scenario=diurnal&epochs=50&seed=%d&mode=closed", base, id, seed))
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("replay %s: status %d, %v", id, resp.StatusCode, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// pprofTags parses go tool pprof -tags output: a "key: Total ..." line
// opens each label key, followed by "  weight (share): value" lines.
func pprofTags(out string) map[string]map[string]bool {
	tags := map[string]map[string]bool{}
	var key string
	for _, line := range strings.Split(out, "\n") {
		k, v, ok := strings.Cut(strings.TrimSpace(line), ":")
		switch {
		case !ok:
		case strings.HasPrefix(strings.TrimSpace(v), "Total"):
			key = k
			tags[key] = map[string]bool{}
		case key != "":
			tags[key][strings.TrimSpace(v)] = true
		}
	}
	return tags
}
