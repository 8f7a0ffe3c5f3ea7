// Package daemon is the multi-tenant controller service: a registry of
// named tenants — each one (topology, matrix) instance wrapped in a
// Controller (a fubar.Session in production) with its own isolated
// telemetry registry, worker budget and lifecycle — behind a streaming
// HTTP+JSON API. A daemon-level scheduler admits tenant work against a
// global worker cap, calls on one tenant are serialized (Sessions are
// not concurrency-safe) while distinct tenants run on independent
// request goroutines, and replays stream epochs as JSON Lines with O(1)
// memory — a disconnecting client cancels the epoch loop via its
// request context. See DESIGN.md "Daemon & multi-tenancy" and
// cmd/fubard for the binary.
package daemon

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fubar/internal/telemetry"
)

// Config configures a daemon Server.
type Config struct {
	// MaxWorkers is the global worker-token cap tenant budgets draw
	// from; 0 means GOMAXPROCS.
	MaxWorkers int
	// DefaultWorkers is the budget of tenants whose create request
	// doesn't set one; 0 means 1.
	DefaultWorkers int
	// Factory builds each tenant's Controller. Required; package
	// fubar's NewDaemon injects the Session-backed factory.
	Factory Factory
	// Telemetry is the daemon's own registry (tenant lifecycle,
	// request counts, scheduler occupancy) — distinct from every
	// per-tenant registry. Nil builds a fresh one.
	Telemetry *telemetry.Telemetry
	// Logger receives structured progress records; nil discards.
	Logger *slog.Logger
}

// Server is the daemon: tenant registry + scheduler + HTTP handler.
// Create one with New, mount Handler on an http.Server, and call
// Shutdown to drain. Methods are safe for concurrent use.
type Server struct {
	cfg     Config
	tel     *telemetry.Telemetry
	met     *telemetry.DaemonMetrics
	sched   *scheduler
	health  *health
	log     *slog.Logger
	handler http.Handler

	// baseCtx parents every tenant context; cancelBase is the
	// shutdown broadcast that ends all in-flight work.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenant
	nextID  int
	closed  bool

	// reqs numbers the requests served; a request's number is the
	// request ID its slog records and spans carry.
	reqs atomic.Uint64
}

// New builds a Server from cfg. The returned server is ready to serve;
// it owns no listener — pair Handler with an http.Server (or httptest).
func New(cfg Config) (*Server, error) {
	if cfg.Factory == nil {
		return nil, fmt.Errorf("daemon: Config.Factory is required")
	}
	if cfg.DefaultWorkers < 1 {
		cfg.DefaultWorkers = 1
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	met := tel.Daemon()
	s := &Server{
		cfg:     cfg,
		tel:     tel,
		met:     met,
		sched:   newScheduler(cfg.MaxWorkers, met),
		health:  newHealth(),
		log:     log,
		tenants: make(map[string]*tenant),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.handler = s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP API handler.
func (s *Server) Handler() http.Handler { return s.handler }

// MaxWorkers reports the effective global worker cap.
func (s *Server) MaxWorkers() int { return s.sched.capacity }

// create registers a new tenant built from req, for request rid.
func (s *Server) create(req *CreateTenantRequest, rid uint64) (TenantInfo, error) {
	if req.ID != "" && !validID(req.ID) {
		return TenantInfo{}, fmt.Errorf("daemon: invalid tenant id %q (want [A-Za-z0-9._-]{1,64})", req.ID)
	}
	if req.Workers < 0 {
		return TenantInfo{}, fmt.Errorf("daemon: negative workers %d (0 takes the daemon default)", req.Workers)
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.DefaultWorkers
	}
	workers = s.sched.clamp(workers)
	topo, mat, err := materialize(req)
	if err != nil {
		return TenantInfo{}, err
	}
	tel := telemetry.New()
	tm := tel.Tenant()
	tm.Workers.Set(float64(workers))
	tm.Seed.Set(float64(req.Seed))
	ctrl, err := s.cfg.Factory(topo, mat, TenantConfig{Workers: workers, Telemetry: tel})
	if err != nil {
		return TenantInfo{}, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ctrl.Close()
		return TenantInfo{}, fmt.Errorf("daemon: shutting down")
	}
	id := req.ID
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("t%d", s.nextID)
			if _, taken := s.tenants[id]; !taken {
				break
			}
		}
	} else if _, taken := s.tenants[id]; taken {
		s.mu.Unlock()
		_ = ctrl.Close()
		return TenantInfo{}, fmt.Errorf("daemon: tenant %q already exists", id)
	}
	t := &tenant{
		info: TenantInfo{
			ID:         id,
			Topology:   topo.Name(),
			Nodes:      topo.NumNodes(),
			Links:      len(topo.Links()),
			Aggregates: len(mat.Aggregates()),
			Seed:       req.Seed,
			Workers:    workers,
		},
		ctrl: ctrl,
		tel:  tel,
		met:  tm,
		gate: make(chan struct{}, 1),
	}
	for k, kind := range runKinds {
		t.labels[k] = telemetry.NewProfileLabels("tenant", id, "kind", kind)
	}
	t.ctx, t.cancel = context.WithCancel(s.baseCtx)
	s.tenants[id] = t
	n := len(s.tenants)
	s.mu.Unlock()

	if s.met != nil {
		s.met.TenantsCreated.Inc()
		s.met.Tenants.Set(float64(n))
	}
	s.log.Info("tenant created", "req", rid, "id", id, "topology", t.info.Topology,
		"nodes", t.info.Nodes, "aggregates", t.info.Aggregates, "workers", workers)
	return t.info, nil
}

// acquire looks a tenant up and pins it against deletion, counting the
// request in flight on it: the caller must release the pin when done.
func (s *Server) acquire(id string) (pin, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[id]
	if !ok {
		return pin{}, false
	}
	t.wg.Add(1)
	return pin{t: t, slot: t.inflight.begin(time.Now())}, true
}

// pin is one request's hold on a tenant (acquire).
type pin struct {
	t    *tenant
	slot int
}

// release ends the request and undoes the pin.
func (p pin) release() {
	p.t.inflight.end(p.slot)
	p.t.wg.Done()
}

// list snapshots the registry sorted by id.
func (s *Server) list() []TenantInfo {
	s.mu.Lock()
	out := make([]TenantInfo, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t.info)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b TenantInfo) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// remove deletes a tenant for request rid: unregister, cancel its
// context (ending in-flight calls at their next epoch boundary), wait for
// them to return, then release the control plane.
func (s *Server) remove(id string, rid uint64) error {
	s.mu.Lock()
	t, ok := s.tenants[id]
	if ok {
		delete(s.tenants, id)
	}
	n := len(s.tenants)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("daemon: no tenant %q", id)
	}
	t.cancel()
	t.wg.Wait()
	err := t.ctrl.Close()
	if s.met != nil {
		s.met.TenantsDeleted.Inc()
		s.met.Tenants.Set(float64(n))
	}
	s.log.Info("tenant deleted", "req", rid, "id", id)
	return err
}

// Shutdown drains the daemon: new requests are refused, every tenant
// context is cancelled so in-flight optimizations and replay streams
// end at their next epoch or candidate-batch boundary (streams flush a
// final error line), and once all in-flight calls have returned every
// tenant's control plane is released. ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.tenants = make(map[string]*tenant)
	s.mu.Unlock()

	s.cancelBase()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, t := range ts {
			t.wg.Wait()
			if err := t.ctrl.Close(); err != nil {
				s.log.Warn("tenant close failed", "id", t.info.ID, "err", err)
			}
		}
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("daemon: shutdown drain: %w", ctx.Err())
	}
	if s.met != nil {
		s.met.Tenants.Set(0)
	}
	s.log.Info("daemon drained", "tenants_closed", len(ts))
	return nil
}

// workCtx derives the context an API call's work runs under: cancelled
// by client disconnect (reqCtx), tenant deletion, or daemon shutdown
// (t.ctx is a child of the server base context). The returned stop
// must be deferred.
func workCtx(reqCtx context.Context, t *tenant) (context.Context, func()) {
	ctx, cancel := context.WithCancel(reqCtx)
	unhook := context.AfterFunc(t.ctx, cancel)
	return ctx, func() {
		unhook()
		cancel()
	}
}
