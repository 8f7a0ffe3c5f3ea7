package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"fubar"
)

// daemon-mixed: an in-process fubard (fubar.NewDaemon) behind a real
// loopback http.Server, small ring tenants, and one keep-alive client
// per core, each owning a disjoint subset of the tenants and running
// rounds of optimize → streamed replay → metrics scrape → trajectory.
// Small tenants keep the session work small, so HTTP handling, the
// tenant lock, the scheduler, JSONL encoding and flushing are not
// diluted.
var daemonWorkload = workload{
	name:  "daemon-mixed",
	setup: setupDaemon,
}

// daemonLanes is the number of client goroutines: one per core, never
// more than there are tenants to own.
func daemonLanes(sz sizes) int { return min(runtime.NumCPU(), sz.tenants) }

const (
	reqHeader  = "X-Bench-Req"  // request id, shared by every span of one request
	spanHeader = "X-Bench-Span" // the client.request span, parent of daemon.handler
	// trajectoryPoints mirrors the budget fubar.NewDaemon's own factory
	// gives tenant sessions.
	trajectoryPoints = 256
)

type daemonInstance struct {
	e        env
	topoText string
	srv      *fubar.DaemonServer
	tel      *fubar.Telemetry // the daemon's own registry
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	tenants  []string

	mu        sync.Mutex
	tenantTel []*fubar.Telemetry // traced pass: the tenants' registries
	nextReq   int64
}

// spanCtx travels from the middleware to the tenant's controller in the
// request context.
type spanCtx struct {
	span spanID
	req  int64
}

type spanKey struct{}

func setupDaemon(e env) (instance, error) {
	topo, err := ringTopology()
	if err != nil {
		return nil, err
	}
	var text bytes.Buffer
	if err := fubar.WriteTopology(&text, topo); err != nil {
		return nil, err
	}
	d := &daemonInstance{e: e, topoText: text.String(), tel: fubar.NewTelemetry(), served: make(chan error, 1)}
	cfg := fubar.DaemonConfig{MaxWorkers: runtime.NumCPU(), Telemetry: d.tel}
	if e.rec != nil {
		cfg.Factory = d.tracedFactory
	}
	if d.srv, err = fubar.NewDaemon(cfg); err != nil {
		return nil, err
	}
	handler := d.srv.Handler()
	if e.rec != nil {
		handler = d.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs = &http.Server{Handler: handler}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	lanes := daemonLanes(e.sz)
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConns: lanes, MaxIdleConnsPerHost: lanes}}

	for t := 0; t < e.sz.tenants; t++ {
		id := fmt.Sprintf("ring%d", t)
		body, err := json.Marshal(fubar.CreateTenantRequest{ID: id, Topology: d.topoText, Seed: d.tenantSeed(t)})
		if err != nil {
			return nil, errors.Join(err, d.close())
		}
		if _, err := d.unary(http.MethodPost, "/v1/tenants", body, http.StatusCreated); err != nil {
			return nil, errors.Join(err, d.close())
		}
		// One closed-loop epoch builds the tenant's control plane, so
		// the first measured closed replay does not pay for it.
		q := fmt.Sprintf("/v1/tenants/%s/replay?scenario=diurnal&epochs=1&seed=%d&mode=closed", id, subSeed(d.e.seed, -1-t))
		if _, err := d.unary(http.MethodGet, q, nil, http.StatusOK); err != nil {
			return nil, errors.Join(err, d.close())
		}
		d.tenants = append(d.tenants, id)
	}
	return d, nil
}

func (d *daemonInstance) tenantSeed(t int) int64 { return tenantSeedBase + int64(t) }

// unary sends one set-up request and returns its body.
func (d *daemonInstance) unary(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	return raw, nil
}

// tracedFactory is the traced pass's DaemonConfig.Factory: the same
// session fubar.NewDaemon's own factory builds, plus an observer, behind
// a controller that records tenant.call and scenario.epoch spans.
func (d *daemonInstance) tracedFactory(topo *fubar.Topology, mat *fubar.Matrix, tc fubar.DaemonTenantConfig) (fubar.DaemonController, error) {
	tr := &optTracer{rec: d.e.rec}
	s, err := fubar.NewSession(topo, mat,
		fubar.WithWorkers(tc.Workers), fubar.WithTelemetry(tc.Telemetry),
		fubar.WithTrajectory(trajectoryPoints), fubar.WithObserver(tr.observe))
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.tenantTel = append(d.tenantTel, tc.Telemetry)
	d.mu.Unlock()
	return &tracedController{Session: s, tr: tr}, nil
}

// middleware records the daemon.handler span around the daemon's whole
// HTTP handler and hands its id to the tenant's controller.
func (d *daemonInstance) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent := noSpan
		if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
			parent = spanID(v)
		}
		id := d.e.rec.begin("daemon.handler", parent, req, time.Now())
		ctx := context.WithValue(r.Context(), spanKey{}, spanCtx{span: id, req: req})
		next.ServeHTTP(w, r.WithContext(ctx))
		d.e.rec.finish(id, time.Now())
	})
}

// tracedController wraps a tenant's session on the traced pass.
type tracedController struct {
	*fubar.Session
	tr *optTracer
}

func (c *tracedController) Optimize(ctx context.Context) (*fubar.Solution, error) {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	t0 := time.Now()
	sol, err := c.Session.Optimize(ctx)
	t1 := time.Now()
	call := c.tr.rec.add("tenant.call", sc.span, sc.req, t0, t1)
	c.tr.optimize(call, sc.req, t0, t1)
	return sol, err
}

func (c *tracedController) Replay(ctx context.Context, s fubar.Scenario) iter.Seq2[fubar.EpochRecord, error] {
	return c.traced(ctx, c.Session.Replay(ctx, s))
}

func (c *tracedController) ReplayClosedLoop(ctx context.Context, s fubar.Scenario) iter.Seq2[fubar.EpochRecord, error] {
	return c.traced(ctx, c.Session.ReplayClosedLoop(ctx, s))
}

// traced records tenant.call ⊃ scenario.epoch×n around a replay
// stream. The time the consumer (the handler's JSONL encoder) holds
// each yielded epoch is left out of the epochs: it is the handler's
// own.
func (c *tracedController) traced(ctx context.Context, seq iter.Seq2[fubar.EpochRecord, error]) iter.Seq2[fubar.EpochRecord, error] {
	return func(yield func(fubar.EpochRecord, error) bool) {
		sc, _ := ctx.Value(spanKey{}).(spanCtx)
		t0 := time.Now()
		call := c.tr.rec.begin("tenant.call", sc.span, sc.req, t0)
		defer func() { c.tr.rec.finish(call, time.Now()) }()
		resume := t0
		for er, err := range seq {
			if err == nil {
				c.tr.epoch(call, sc.req, resume, time.Now())
			}
			if !yield(er, err) {
				return
			}
			resume = time.Now()
		}
	}
}

// reply is one finished HTTP request as the client saw it.
type reply struct {
	status int
	body   []byte
	lines  [][]byte      // stream requests: the JSONL lines
	first  time.Duration // stream requests: send → first line read
	total  time.Duration // send → body fully read
}

// do sends one measured request. On the traced pass it records the
// client.request span and tells the server its ids.
func (d *daemonInstance) do(root spanID, method, path string, stream bool) (reply, error) {
	var rp reply
	req, err := http.NewRequest(method, d.base+path, nil)
	if err != nil {
		return rp, err
	}
	span := noSpan
	t0 := time.Now()
	if d.e.rec != nil {
		d.mu.Lock()
		d.nextReq++
		id := d.nextReq
		d.mu.Unlock()
		span = d.e.rec.begin("client.request", root, id, t0)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	rp.status = resp.StatusCode
	if stream && resp.StatusCode == http.StatusOK {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 {
				if rp.lines == nil {
					rp.first = time.Since(t0)
				}
				rp.lines = append(rp.lines, bytes.TrimSuffix(line, []byte{'\n'}))
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return rp, err
			}
		}
	} else if rp.body, err = io.ReadAll(resp.Body); err != nil {
		return rp, err
	}
	end := time.Now()
	rp.total = end.Sub(t0)
	if d.e.rec != nil {
		d.e.rec.finish(span, end)
	}
	return rp, nil
}

func (d *daemonInstance) run(ctx context.Context, lim limit) (*pass, error) {
	lanes := daemonLanes(d.e.sz)
	out := make([]pass, lanes)
	start := time.Now()
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runLane(lane, lanes, lim, start, &out[lane])
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	p := &pass{units: make(map[string]string)}
	for lane := range out {
		l := &out[lane]
		l.laneOps = make([]int, lanes)
		l.laneOps[lane] = len(l.latMs)
		p.merge(l)
		p.results = append(p.results, l.results...)
		p.unitResults = append(p.unitResults, l.unitResults...)
		for tenant, digests := range l.units {
			p.units[tenant] = digests // lanes own disjoint tenants
		}
	}
	p.wall = wall
	d.mu.Lock()
	for _, tel := range d.tenantTel {
		p.candidates += tel.Snapshot().Counters["fubar_eval_utility_only_calls_total"]
	}
	d.mu.Unlock()
	return p, nil
}

// runLane is one closed-loop client: it owns tenants lane, lane+lanes,
// ... (so no two clients ever contend for a tenant and counts repeat
// exactly) and runs rounds over them until lim.
func (d *daemonInstance) runLane(lane, lanes int, lim limit, start time.Time, l *pass) {
	var own []int
	for t := lane; t < len(d.tenants); t += lanes {
		own = append(own, t)
	}
	root := noSpan
	if d.e.rec != nil {
		root = d.e.rec.begin("pass", noSpan, 0, time.Now())
		defer func() { d.e.rec.finish(root, time.Now()) }()
	}
	for i := 0; !lim.done(lane, i, start); i++ {
		t, round := own[i%len(own)], i/len(own)
		d.e.hold(root)
		t0 := time.Now()
		res := d.round(root, t, round, l)
		l.latMs = append(l.latMs, ms(time.Since(t0)))
		d.e.release()
		l.results = append(l.results, res)
		l.unit(d.tenants[t], res)
		if round == 0 {
			l.unitResults = append(l.unitResults, res)
		}
		if lane == 0 {
			d.e.calibrate(root)
		}
	}
}

// replayQuery is tenant t's replay request of a round: every third one
// runs through the tenant's control plane.
func (d *daemonInstance) replayQuery(t, round int) (path string, seed int64, closed bool) {
	seed = subSeed(d.e.seed, 1000*(t+1)+round)
	closed = round%3 == 2
	path = fmt.Sprintf("/v1/tenants/%s/replay?scenario=diurnal&epochs=%d&seed=%d", d.tenants[t], d.e.sz.replayEpochs, seed)
	if closed {
		path += "&mode=closed"
	}
	return path, seed, closed
}

// round is one operation: optimize → streamed replay → scrape →
// trajectory on one tenant. It returns the round's canonical result.
func (d *daemonInstance) round(root spanID, t, round int, p *pass) string {
	id := d.tenants[t]
	var res strings.Builder
	fmt.Fprintf(&res, "%s/%d", id, round)

	// POST optimize.
	p.attempted++
	rp, err := d.do(root, http.MethodPost, "/v1/tenants/"+id+"/optimize", false)
	var sum fubar.SolutionSummary
	switch {
	case err != nil:
		p.fail("%s optimize: %v", id, err)
	case rp.status != http.StatusOK:
		p.fail("%s optimize: status %d: %s", id, rp.status, rp.body)
	case json.Unmarshal(rp.body, &sum) != nil || !checkUtility(sum.Utility):
		p.fail("%s optimize: bad summary %s", id, rp.body)
	default:
		p.kind("optimize", ms(rp.total))
		p.utilities = append(p.utilities, sum.Utility)
		p.steps += sum.Steps
		fmt.Fprintf(&res, " opt u=%v steps=%d stop=%s bundles=%d", sum.Utility, sum.Steps, sum.Stop, sum.Bundles)
	}

	// GET replay, streamed.
	path, _, closed := d.replayQuery(t, round)
	p.attempted++
	rp, err = d.do(root, http.MethodGet, path, true)
	switch {
	case err != nil:
		p.fail("%s replay: %v", id, err)
	case rp.status != http.StatusOK:
		p.fail("%s replay: status %d: %s", id, rp.status, rp.body)
	case len(rp.lines) != d.e.sz.replayEpochs:
		p.fail("%s replay: %d lines, want %d (last: %s)", id, len(rp.lines), d.e.sz.replayEpochs, lastLine(rp.lines))
	default:
		p.kind("first_epoch", ms(rp.first))
		p.kind("replay", ms(rp.total))
		for i, line := range rp.lines {
			var er fubar.EpochRecord
			if err := json.Unmarshal(line, &er); err != nil || bytes.HasPrefix(line, []byte(`{"error"`)) {
				p.fail("%s replay line %d: %s", id, i, line)
				break
			}
			if !checkUtility(er.Utility) || (closed && er.WireFlowMods != er.InstallAcks) {
				p.fail("%s replay epoch %d: utility %v, %d wire FlowMods, %d acks", id, i, er.Utility, er.WireFlowMods, er.InstallAcks)
			}
			p.epochs++
			p.utilities = append(p.utilities, er.Utility)
			p.steps += er.Steps
			p.wireFlowMods += er.WireFlowMods
			p.optimizeWall += er.Elapsed
			if len(p.records) < 64 {
				p.records = append(p.records, er)
			}
			fmt.Fprintf(&res, " | %s", epochResult(&er))
		}
	}

	// GET metrics: the tenant's registry, scraped while it is live.
	p.attempted++
	rp, err = d.do(root, http.MethodGet, "/v1/tenants/"+id+"/metrics", false)
	switch {
	case err != nil:
		p.fail("%s metrics: %v", id, err)
	case rp.status != http.StatusOK:
		p.fail("%s metrics: status %d", id, rp.status)
	case round == 0 && fubar.CheckExposition(string(rp.body)) != nil:
		p.fail("%s metrics: %v", id, fubar.CheckExposition(string(rp.body)))
	default:
		p.kind("scrape", ms(rp.total))
	}

	// GET trajectory of the replay just streamed.
	p.attempted++
	rp, err = d.do(root, http.MethodGet, "/v1/tenants/"+id+"/trajectory", false)
	var traj fubar.Trajectory
	switch {
	case err != nil:
		p.fail("%s trajectory: %v", id, err)
	case rp.status != http.StatusOK:
		p.fail("%s trajectory: status %d: %s", id, rp.status, rp.body)
	case json.Unmarshal(rp.body, &traj) != nil || traj.Epochs != d.e.sz.replayEpochs:
		p.fail("%s trajectory: want %d epochs: %s", id, d.e.sz.replayEpochs, rp.body)
	default:
		p.kind("trajectory", ms(rp.total))
		fmt.Fprintf(&res, " | traj %s", bytes.Join(bytes.Fields(rp.body), nil))
	}
	return res.String()
}

func lastLine(lines [][]byte) []byte {
	if len(lines) == 0 {
		return nil
	}
	return lines[len(lines)-1]
}

// tenantInstance materializes tenant t the way the daemon does from its
// create request.
func (d *daemonInstance) tenantInstance(t int) (*fubar.Topology, *fubar.Matrix, error) {
	topo, err := fubar.ParseTopology(strings.NewReader(d.topoText))
	if err != nil {
		return nil, nil, err
	}
	mat, err := fubar.GenerateTraffic(topo, fubar.DefaultGenConfig(d.tenantSeed(t)))
	return topo, mat, err
}

// verify replays every tenant's first (open) replay in process, on a
// session built from the same inputs at the other worker count, and
// requires the streamed epochs to match it, wall-clock field aside.
func (d *daemonInstance) verify(ctx context.Context, p *pass) (time.Duration, error) {
	for _, res := range p.unitResults {
		name, _, _ := strings.Cut(res, "/")
		t, err := strconv.Atoi(strings.TrimPrefix(name, "ring"))
		if err != nil {
			return 0, fmt.Errorf("daemon: bad unit result %q", res)
		}
		topo, mat, err := d.tenantInstance(t)
		if err != nil {
			return 0, err
		}
		s, err := fubar.NewSession(topo, mat, fubar.WithWorkers(verifyWorkers))
		if err != nil {
			return 0, err
		}
		_, seed, _ := d.replayQuery(t, 0)
		sc, err := fubar.ScenarioByName("diurnal", seed, d.e.sz.replayEpochs)
		if err != nil {
			return 0, err
		}
		var want strings.Builder
		for er, err := range s.Replay(ctx, sc) {
			if err != nil {
				return 0, err
			}
			// Through JSON and back, as the streamed epochs went.
			line, _ := json.Marshal(&er)
			var back fubar.EpochRecord
			if err := json.Unmarshal(line, &back); err != nil {
				return 0, err
			}
			fmt.Fprintf(&want, " | %s", epochResult(&back))
		}
		if !strings.Contains(res, want.String()+" | traj") {
			p.fail("%s: streamed replay differs from the in-process one:\n got %s\nwant %s", name, res, want.String())
		}
	}
	return 0, nil
}

func (d *daemonInstance) layerInputs() (*fubar.Topology, *fubar.Matrix) {
	topo, mat, err := d.tenantInstance(0)
	if err != nil {
		panic(err) // set-up already materialized this instance once
	}
	return topo, mat
}

// workerWaits is the daemon scheduler's count of admissions that had to
// wait for worker tokens.
func (d *daemonInstance) workerWaits() int64 {
	return d.tel.Snapshot().Counters["fubar_daemon_worker_waits_total"]
}

// close drains the daemon and stops the HTTP server, waiting for the
// serve goroutine to end.
func (d *daemonInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if d.hs != nil {
		errs = append(errs, d.hs.Shutdown(ctx))
		if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if d.srv != nil {
		errs = append(errs, d.srv.Shutdown(ctx))
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
