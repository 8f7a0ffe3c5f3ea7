package fubar_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fubar"
)

const daemonTestTopology = `topology tri
link a b 2Mbps 5ms
link b c 2Mbps 5ms
link a c 2Mbps 12ms
`

// newDaemonServer stands up a Session-backed daemon behind httptest.
func newDaemonServer(t *testing.T) (*fubar.DaemonServer, *httptest.Server) {
	t.Helper()
	srv, err := fubar.NewDaemon(fubar.DaemonConfig{MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv, ts
}

func daemonCreateTenant(t *testing.T, base, id string, seed int64) {
	t.Helper()
	body, _ := json.Marshal(fubar.CreateTenantRequest{
		ID: id, Topology: daemonTestTopology, Seed: seed, Workers: 2,
	})
	resp, err := http.Post(base+"/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d: %s", id, resp.StatusCode, raw)
	}
}

// daemonStreamEpochs reads a JSONL replay response into canonical lines
// (Elapsed zeroed, re-marshaled) plus the terminal error line, if any.
func daemonStreamEpochs(t *testing.T, resp *http.Response) (lines [][]byte, streamErr string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("replay: status %d: %s", resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Error *string `json:"error"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Error != nil {
			return lines, *probe.Error
		}
		var er fubar.EpochRecord
		if err := json.Unmarshal(line, &er); err != nil {
			t.Fatalf("bad epoch line: %v: %s", err, line)
		}
		er.Elapsed = 0
		b, err := json.Marshal(&er)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	return lines, ""
}

// inProcessClosedLoop replays the same scenario through a local Session
// built from the identical instance materialization, canonicalized the
// same way.
func inProcessClosedLoop(t *testing.T, seed int64, epochs int) [][]byte {
	t.Helper()
	topo, err := fubar.ParseTopology(strings.NewReader(daemonTestTopology))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := fubar.GenerateTraffic(topo, fubar.DefaultGenConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, err := fubar.ScenarioByName("diurnal", seed, epochs)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for er, err := range s.ReplayClosedLoop(context.Background(), sc) {
		if err != nil {
			t.Fatal(err)
		}
		er.Elapsed = 0
		b, err := json.Marshal(&er)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func daemonMetricValue(body, name string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func daemonScrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := fubar.CheckExposition(string(b)); err != nil {
		t.Fatalf("%s exposition: %v", url, err)
	}
	return string(b)
}

// TestDaemonTwoConcurrentTenants is the daemon's acceptance test: two
// tenants optimize and closed-loop replay concurrently over HTTP, no
// optimize ends below its initial utility, every streamed epoch is
// bit-identical (Elapsed aside) to the same replay run in-process, each
// tenant's /metrics registry is isolated, each tenant's wire-FlowMod
// ledger reconciles with its acks, and deleting both tenants empties the
// registry.
func TestDaemonTwoConcurrentTenants(t *testing.T) {
	_, ts := newDaemonServer(t)
	const epochs = 4
	seeds := map[string]int64{"alpha": 3, "beta": 4}
	for id, seed := range seeds {
		daemonCreateTenant(t, ts.URL, id, seed)
	}

	streams := make(map[string][][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, len(seeds))
	for id := range seeds {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/tenants/"+id+"/optimize", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("optimize %s: status %d: %s", id, resp.StatusCode, raw)
				return
			}
			var sum struct {
				Utility        float64 `json:"utility"`
				InitialUtility float64 `json:"initial_utility"`
			}
			if err := json.Unmarshal(raw, &sum); err != nil || sum.Utility <= 0 {
				errs <- fmt.Errorf("optimize %s: unusable summary %s", id, raw)
				return
			}
			if sum.Utility < sum.InitialUtility {
				errs <- fmt.Errorf("optimize %s: utility %g below initial %g", id, sum.Utility, sum.InitialUtility)
				return
			}
			rresp, err := http.Get(fmt.Sprintf("%s/v1/tenants/%s/replay?scenario=diurnal&epochs=%d&mode=closed", ts.URL, id, epochs))
			if err != nil {
				errs <- err
				return
			}
			lines, streamErr := daemonStreamEpochs(t, rresp)
			if streamErr != "" {
				errs <- fmt.Errorf("replay %s: stream error %q", id, streamErr)
				return
			}
			mu.Lock()
			streams[id] = lines
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for id, seed := range seeds {
		want := inProcessClosedLoop(t, seed, epochs)
		got := streams[id]
		if len(got) != len(want) {
			t.Fatalf("tenant %s: streamed %d epochs, want %d", id, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("tenant %s epoch %d: stream differs from in-process replay\nstream: %s\nlocal:  %s", id, i, got[i], want[i])
			}
		}
	}

	// Per-tenant registries: isolated, parseable, ledgers reconciled.
	for id, seed := range seeds {
		body := daemonScrape(t, ts.URL+"/v1/tenants/"+id+"/metrics")
		if v := daemonMetricValue(body, "fubar_tenant_seed"); v != float64(seed) {
			t.Errorf("tenant %s: seed gauge %g, want %d (registry not isolated?)", id, v, seed)
		}
		if v := daemonMetricValue(body, "fubar_scenario_epochs_total"); v != epochs {
			t.Errorf("tenant %s: %g scenario epochs recorded, want %d", id, v, epochs)
		}
		mods := daemonMetricValue(body, "fubar_ctrlplane_wire_flowmods_total")
		acks := daemonMetricValue(body, "fubar_ctrlplane_install_acks_total")
		if mods <= 0 || mods != acks {
			t.Errorf("tenant %s: wire ledger %g flowmods vs %g acks", id, mods, acks)
		}
	}
	daemonBody := daemonScrape(t, ts.URL+"/metrics")
	if v := daemonMetricValue(daemonBody, "fubar_daemon_tenants"); v != 2 {
		t.Errorf("daemon tenants gauge %g, want 2", v)
	}
	if v := daemonMetricValue(daemonBody, "fubar_daemon_optimizes_total"); v != 2 {
		t.Errorf("daemon optimizes %g, want 2", v)
	}

	for id := range seeds {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tenants/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %s: status %d", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Tenants []fubar.TenantInfo `json:"tenants"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Tenants) != 0 {
		t.Errorf("after deletes: tenants %+v (decode err %v), want none", list.Tenants, err)
	}
	if v := daemonMetricValue(daemonScrape(t, ts.URL+"/metrics"), "fubar_daemon_tenants"); v != 0 {
		t.Errorf("daemon tenants gauge %g after deletes, want 0", v)
	}
}

// TestDaemonClientDisconnectCancelsReplay proves a dropped replay
// client cancels the epoch loop server-side instead of replaying to
// completion into the void.
func TestDaemonClientDisconnectCancelsReplay(t *testing.T) {
	_, ts := newDaemonServer(t)
	daemonCreateTenant(t, ts.URL, "a", 5)

	const epochs = 200000
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/a/replay?scenario=diurnal&epochs=%d", ts.URL, epochs), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(resp.Body)
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The stream's replay must end promptly: the daemon counts the
	// finished stream, having delivered far fewer than all epochs.
	deadline := time.Now().Add(30 * time.Second)
	for {
		body := daemonScrape(t, ts.URL+"/metrics")
		if daemonMetricValue(body, "fubar_daemon_replays_total") >= 1 {
			if n := daemonMetricValue(body, "fubar_daemon_stream_epochs_total"); n >= epochs {
				t.Fatalf("replay streamed all %g epochs despite disconnect", n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replay never terminated after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDaemonGracefulDrain proves Shutdown ends an in-flight replay at
// an epoch boundary (the stream flushes its error line), closes tenant
// control planes, and refuses later requests.
func TestDaemonGracefulDrain(t *testing.T) {
	srv, ts := newDaemonServer(t)
	daemonCreateTenant(t, ts.URL, "a", 6)

	type streamEnd struct {
		epochs    int
		streamErr string
	}
	endc := make(chan streamEnd, 1)
	firstLine := make(chan struct{})
	go func() {
		resp, err := http.Get(ts.URL + "/v1/tenants/a/replay?scenario=diurnal&epochs=200000&mode=closed")
		if err != nil {
			endc <- streamEnd{streamErr: err.Error()}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		end := streamEnd{}
		closedFirst := false
		for sc.Scan() {
			var probe struct {
				Error *string `json:"error"`
			}
			if json.Unmarshal(sc.Bytes(), &probe) == nil && probe.Error != nil {
				end.streamErr = *probe.Error
				break
			}
			end.epochs++
			if !closedFirst {
				closedFirst = true
				close(firstLine)
			}
		}
		endc <- end
	}()

	select {
	case <-firstLine:
	case <-time.After(60 * time.Second):
		t.Fatal("replay never produced a first epoch")
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelCtx()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case end := <-endc:
		if end.streamErr == "" {
			t.Errorf("drained stream ended without an error line after %d epochs", end.epochs)
		}
		if end.epochs >= 200000 {
			t.Error("replay ran to completion despite shutdown")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight stream never terminated after shutdown")
	}
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown status %d, want 503", resp.StatusCode)
	}
}
