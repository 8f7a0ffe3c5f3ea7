package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fubar"
	"fubar/internal/telemetry"
)

// smokeTopology is the tiny instance the self check optimizes: a
// six-node ring with one cross chord, small enough that the whole flow
// runs in seconds.
const smokeTopology = `topology smoke-ring
link n0 n1 60Mbps 5ms
link n1 n2 60Mbps 5ms
link n2 n3 60Mbps 5ms
link n3 n4 60Mbps 5ms
link n4 n5 60Mbps 5ms
link n5 n0 60Mbps 5ms
link n0 n3 90Mbps 9ms
`

const (
	smokeSeed     = int64(7)
	smokeScenario = "diurnal"
	smokeEpochs   = 8
)

// runSmoke drives the daemon end to end over a real TCP listener: two
// tenants created over HTTP, concurrent optimizes through the worker
// scheduler, a streamed closed-loop replay verified bit-identical to an
// in-process Session replay, per-tenant metrics scrapes (exposition
// validity, wire-FlowMods-vs-ack ledger, registry isolation), tenant
// deletion, and a clean drain.
func runSmoke(srv *fubar.DaemonServer, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := telemetry.NewServer(srv.Handler())
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	logger.Info("smoke daemon up", "addr", base)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	client := &http.Client{}

	// Two tenants over the same instance shape, different budgets.
	for _, req := range []fubar.CreateTenantRequest{
		{ID: "alpha", Topology: smokeTopology, Seed: smokeSeed, Workers: 1},
		{ID: "beta", Topology: smokeTopology, Seed: smokeSeed + 1, Workers: 2},
	} {
		var info fubar.TenantInfo
		if err := postJSON(ctx, client, base+"/v1/tenants", req, http.StatusCreated, &info); err != nil {
			return fmt.Errorf("create %s: %w", req.ID, err)
		}
		if info.Nodes != 6 || info.Aggregates == 0 {
			return fmt.Errorf("create %s: unexpected instance %+v", req.ID, info)
		}
	}

	// Concurrent optimizes: both tenants' budgets flow through the
	// shared scheduler while each call holds its tenant's gate.
	errc := make(chan error, 2)
	for _, id := range []string{"alpha", "beta"} {
		go func(id string) {
			var sum struct {
				Utility        float64 `json:"utility"`
				InitialUtility float64 `json:"initial_utility"`
			}
			if err := postJSON(ctx, client, base+"/v1/tenants/"+id+"/optimize", nil, http.StatusOK, &sum); err != nil {
				errc <- fmt.Errorf("optimize %s: %w", id, err)
				return
			}
			if sum.Utility < sum.InitialUtility {
				errc <- fmt.Errorf("optimize %s: utility %g below initial %g", id, sum.Utility, sum.InitialUtility)
				return
			}
			errc <- nil
		}(id)
	}
	for range 2 {
		if err := <-errc; err != nil {
			return err
		}
	}
	logger.Info("smoke optimizes done")

	// Streamed closed-loop replay must be bit-identical to the same
	// replay run in-process (Elapsed aside, which is wall time).
	want, err := smokeExpectedEpochs()
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s/v1/tenants/alpha/replay?scenario=%s&epochs=%d&mode=closed", base, smokeScenario, smokeEpochs)
	got, err := streamEpochLines(ctx, client, url)
	if err != nil {
		return fmt.Errorf("replay stream: %w", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("replay stream: %d epochs, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("replay stream: epoch %d differs from in-process replay:\nstream: %s\nlocal:  %s", i, got[i], want[i])
		}
	}
	logger.Info("smoke replay bit-identical", "epochs", len(got))

	// Per-tenant scrape: valid exposition, wire FlowMods == acked
	// FlowMods (the control-plane ledger reconciles), and isolation —
	// beta never replayed, so its registry has no install traffic.
	alphaMetrics, err := get(ctx, client, base+"/v1/tenants/alpha/metrics")
	if err != nil {
		return err
	}
	if err := fubar.CheckExposition(alphaMetrics); err != nil {
		return fmt.Errorf("alpha /metrics exposition: %w", err)
	}
	mods := metricValue(alphaMetrics, "fubar_ctrlplane_wire_flowmods_total")
	acks := metricValue(alphaMetrics, "fubar_ctrlplane_install_acks_total")
	if mods <= 0 || mods != acks {
		return fmt.Errorf("alpha wire ledger: %g flowmods vs %g acks", mods, acks)
	}
	betaMetrics, err := get(ctx, client, base+"/v1/tenants/beta/metrics")
	if err != nil {
		return err
	}
	if err := fubar.CheckExposition(betaMetrics); err != nil {
		return fmt.Errorf("beta /metrics exposition: %w", err)
	}
	if v := metricValue(betaMetrics, "fubar_ctrlplane_wire_flowmods_total"); v != 0 {
		return fmt.Errorf("tenant isolation: beta registry saw %g wire flowmods", v)
	}
	daemonMetrics, err := get(ctx, client, base+"/metrics")
	if err != nil {
		return err
	}
	if err := fubar.CheckExposition(daemonMetrics); err != nil {
		return fmt.Errorf("daemon /metrics exposition: %w", err)
	}
	if v := metricValue(daemonMetrics, "fubar_daemon_tenants"); v != 2 {
		return fmt.Errorf("daemon tenants gauge: %g, want 2", v)
	}
	logger.Info("smoke metrics scrapes clean", "wire_flowmods", mods)

	// Trajectory of the finished replay is served downsampled.
	trajBody, err := get(ctx, client, base+"/v1/tenants/alpha/trajectory")
	if err != nil {
		return err
	}
	var traj struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal([]byte(trajBody), &traj); err != nil || len(traj.Points) == 0 {
		return fmt.Errorf("trajectory: unusable body %q (err %v)", trajBody, err)
	}

	// Delete both tenants and confirm the registry empties.
	for _, id := range []string{"alpha", "beta"} {
		req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/v1/tenants/"+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			return fmt.Errorf("delete %s: status %d", id, resp.StatusCode)
		}
	}
	var list struct {
		Tenants []fubar.TenantInfo `json:"tenants"`
	}
	if err := getJSON(ctx, client, base+"/v1/tenants", &list); err != nil {
		return err
	}
	if len(list.Tenants) != 0 {
		return fmt.Errorf("after deletes: %d tenants remain", len(list.Tenants))
	}

	// Clean drain: daemon first (cancels tenant work), then listener.
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// smokeExpectedEpochs replays the smoke scenario in-process through the
// same instance materialization the daemon uses and returns the
// canonical JSONL line per epoch (Elapsed zeroed).
func smokeExpectedEpochs() ([][]byte, error) {
	topo, err := fubar.ParseTopology(strings.NewReader(smokeTopology))
	if err != nil {
		return nil, err
	}
	mat, err := fubar.GenerateTraffic(topo, fubar.DefaultGenConfig(smokeSeed))
	if err != nil {
		return nil, err
	}
	s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	sc, err := fubar.ScenarioByName(smokeScenario, smokeSeed, smokeEpochs)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for er, err := range s.ReplayClosedLoop(context.Background(), sc) {
		if err != nil {
			return nil, err
		}
		er.Elapsed = 0
		b, err := json.Marshal(&er)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// streamEpochLines consumes a JSONL replay response, canonicalizing
// each epoch line (Elapsed zeroed, re-marshaled) for byte comparison.
func streamEpochLines(ctx context.Context, client *http.Client, url string) ([][]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out [][]byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Error *string `json:"error"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Error != nil {
			return nil, fmt.Errorf("stream error line: %s", *probe.Error)
		}
		var er fubar.EpochRecord
		if err := json.Unmarshal(line, &er); err != nil {
			return nil, fmt.Errorf("bad epoch line %q: %w", line, err)
		}
		er.Elapsed = 0
		b, err := json.Marshal(&er)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// metricValue sums the samples of one metric in a Prometheus text
// exposition (0 when absent).
func metricValue(body, name string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func get(ctx context.Context, client *http.Client, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	body, err := get(ctx, client, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(body), out)
}

func postJSON(ctx context.Context, client *http.Client, url string, in any, wantStatus int, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
