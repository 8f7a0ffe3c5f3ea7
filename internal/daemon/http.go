package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math"
	"net/http"
	"runtime/pprof"
	"strconv"
	"time"

	"fubar/internal/scenario"
	"fubar/internal/telemetry"
)

// routes builds the daemon's HTTP API (Go 1.22 method+pattern mux):
//
//	POST   /v1/tenants                  create a tenant
//	GET    /v1/tenants                  list tenants
//	GET    /v1/tenants/{id}             one tenant's info
//	DELETE /v1/tenants/{id}             delete (release control plane)
//	POST   /v1/tenants/{id}/optimize    optimize; SolutionSummary body
//	GET    /v1/tenants/{id}/replay      stream a scenario replay (JSONL)
//	GET    /v1/tenants/{id}/trajectory  last replay's Trajectory
//	GET    /v1/tenants/{id}/metrics     the tenant's registry (Prometheus)
//	GET    /v1/tenants/{id}/trace       the tenant's span stream (JSONL)
//	GET    /metrics                     the daemon's own registry
//	       /debug/pprof/*               runtime profiles
//	GET    /healthz                     liveness
//
// replay query parameters: scenario (canned name, see scenario.Names),
// epochs, seed, and mode=open|closed — closed replays through the
// emulated control plane (installs, acks, failovers) like
// Session.ReplayClosedLoop.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.handleCreate)
	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("GET /v1/tenants/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{id}/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/tenants/{id}/replay", s.handleReplay)
	mux.HandleFunc("GET /v1/tenants/{id}/trajectory", s.handleTrajectory)
	mux.HandleFunc("GET /v1/tenants/{id}/metrics", s.tenantTelemetry(tenantMetrics))
	mux.HandleFunc("GET /v1/tenants/{id}/trace", s.tenantTelemetry(tenantTrace))
	mux.Handle("GET /metrics", s.metricsHandler())
	telemetry.PprofMux(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.met != nil {
			s.met.Requests.Inc()
		}
		r = r.WithContext(telemetry.WithSpan(r.Context(), telemetry.Span{Req: s.reqs.Add(1)}))
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("daemon: shutting down"))
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// reqID is the ID routes gave request r.
func reqID(r *http.Request) uint64 { return telemetry.SpanOf(r.Context()).Req }

// statusFor maps a work error to an HTTP status: cancellation of the
// server/tenant context reads as 503 (shutting down), everything else
// as a client-visible 4xx/5xx.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateTenantRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad create body: %w", err))
		return
	}
	info, err := s.create(&req, reqID(r))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TenantList{Tenants: s.list()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	p, ok := s.acquire(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", r.PathValue("id")))
		return
	}
	defer p.release()
	t := p.t
	writeJSON(w, http.StatusOK, t.info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.remove(r.PathValue("id"), reqID(r)); err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxTimeoutMs is the largest timeout_ms a time.Duration holds.
const maxTimeoutMs = math.MaxInt64 / int64(time.Millisecond)

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	p, ok := s.acquire(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", r.PathValue("id")))
		return
	}
	defer p.release()
	t := p.t
	// An empty body, sent with a zero length or chunked, is an empty
	// request: the decoder reports it as io.EOF.
	var req OptimizeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
		httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad optimize body: %w", err))
		return
	}
	if req.TimeoutMs < 0 || req.TimeoutMs > maxTimeoutMs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: timeout_ms %d outside [0, %d] (0 sets no deadline)", req.TimeoutMs, maxTimeoutMs))
		return
	}
	ctx, stop := workCtx(r.Context(), t)
	defer stop()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	if err := t.lock(ctx); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	defer t.unlock()
	held, err := s.sched.acquire(ctx, t.info.Workers)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("daemon: worker budget: %w", err))
		return
	}
	defer s.sched.release(held)
	// CPU profiles label the run with its tenant and kind.
	t.labels[runOptimize].Enter()
	defer pprof.SetGoroutineLabels(r.Context())
	start := time.Now()
	sol, err := t.ctrl.Optimize(ctx)
	if err != nil {
		httpError(w, statusFor(err), err)
		return
	}
	if s.met != nil {
		s.met.Optimizes.Inc()
		s.met.OptimizeSecs.Observe(time.Since(start).Seconds())
	}
	s.log.Info("optimize done", "req", reqID(r), "tenant", t.info.ID,
		"utility", sol.Utility, "steps", sol.Steps, "elapsed", time.Since(start))
	writeJSON(w, http.StatusOK, sol.Summary())
}

// maxReplayEpochs bounds one replay request's epochs. A timeline is built
// whole before the tenant lock and the scheduler admit the request — two
// events per epoch for diurnal — so the bound is what keeps one query
// string from allocating gigabytes: 1<<18 epochs is a ≈34 MB timeline, room
// for a day of 1-second epochs and then some. Longer runs are several
// requests.
const maxReplayEpochs = 1 << 18

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	p, ok := s.acquire(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", r.PathValue("id")))
		return
	}
	defer p.release()
	t := p.t
	q := r.URL.Query()
	epochs := 16
	if v := q.Get("epochs"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxReplayEpochs {
			httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad epochs %q (want 1 to %d)", v, maxReplayEpochs))
			return
		}
		epochs = n
	}
	seed := t.info.Seed
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad seed %q", v))
			return
		}
		seed = n
	}
	sc, err := scenario.ByName(q.Get("scenario"), seed, epochs)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	closed := false
	switch q.Get("mode") {
	case "", "open":
	case "closed":
		closed = true
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("daemon: bad mode %q (want open or closed)", q.Get("mode")))
		return
	}

	ctx, stop := workCtx(r.Context(), t)
	defer stop()
	if err := t.lock(ctx); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	defer t.unlock()
	held, err := s.sched.acquire(ctx, t.info.Workers)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("daemon: worker budget: %w", err))
		return
	}
	defer s.sched.release(held)

	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Fubar-Scenario", sc.Name)
	// CPU profiles label the run with its tenant and kind, and its epochs
	// with their phases.
	labels := t.labels[runReplay]
	if closed {
		labels = t.labels[runClosedLoop]
	}
	labels.Enter()
	defer pprof.SetGoroutineLabels(r.Context())
	ctx = telemetry.WithProfileLabels(ctx, labels)
	var seq iter.Seq2[scenario.EpochResult, error]
	if closed {
		seq = t.ctrl.ReplayClosedLoop(ctx, sc)
	} else {
		seq = t.ctrl.Replay(ctx, sc)
	}
	start := time.Now()
	n, err := WriteEpochs(w, seq)
	if s.met != nil {
		s.met.Replays.Inc()
		s.met.StreamEpochs.Add(int64(n))
	}
	s.log.Info("replay stream ended", "req", reqID(r), "tenant", t.info.ID, "scenario", sc.Name,
		"epochs_streamed", n, "elapsed", time.Since(start), "err", err)
}

func (s *Server) handleTrajectory(w http.ResponseWriter, r *http.Request) {
	p, ok := s.acquire(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", r.PathValue("id")))
		return
	}
	defer p.release()
	t := p.t
	// Snapshot under the tenant gate so a concurrent replay's recorder
	// swap cannot race; bail out rather than block behind a long replay.
	select {
	case t.gate <- struct{}{}:
	default:
		httpError(w, http.StatusConflict, fmt.Errorf("daemon: tenant %s busy (trajectory is readable between replays)", t.info.ID))
		return
	}
	traj := t.ctrl.Trajectory()
	t.unlock()
	writeJSON(w, http.StatusOK, traj)
}

// tenantMetrics serves a tenant's registry, the age of its oldest request
// in flight read first.
func tenantMetrics(t *tenant) http.Handler {
	now := time.Now()
	t.met.OldestRequest.Set(age(t.inflight.oldest(), now))
	return telemetry.MetricsHandler(t.tel)
}

// tenantTrace serves a tenant's span stream.
func tenantTrace(t *tenant) http.Handler { return telemetry.TraceHandler(t.tel) }

// tenantTelemetry adapts a per-tenant telemetry handler constructor
// (tenantMetrics, tenantTrace) into a route.
func (s *Server) tenantTelemetry(h func(*tenant) http.Handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, ok := s.acquire(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("daemon: no tenant %q", r.PathValue("id")))
			return
		}
		defer p.release()
		h(p.t).ServeHTTP(w, r)
	}
}
