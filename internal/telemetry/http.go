package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"
)

// NewServer wraps h in the server every command listens with: it gives up
// on a peer which opens a connection and never finishes its request
// headers, or holds a keep-alive connection idle. There is deliberately no
// write timeout: /trace and a daemon replay stream for as long as they run.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// MetricsHandler serves one registry's Prometheus text exposition — the
// per-registry building block. The daemon mounts one per tenant (each
// tenant owns an isolated registry) plus one for its own registry; the
// CLIs' -listen endpoints reach it through Handler below.
func MetricsHandler(t *Telemetry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if t != nil && t.Registry != nil {
			_ = t.Registry.WriteProm(w)
		}
	})
}

// TraceHandler serves one tracer's JSONL span stream: the buffered ring
// first, then live events until the client disconnects. Slow readers
// drop events rather than block the traced code.
func TraceHandler(t *Telemetry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		if t == nil || t.Tracer == nil {
			return
		}
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		recent, ch, cancel := t.Tracer.Subscribe()
		defer cancel()
		for _, ev := range recent {
			if enc.Encode(ev) != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, ok := <-ch:
				if !ok || enc.Encode(ev) != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	})
}

// PprofMux registers the standard runtime profiles under /debug/pprof/
// on mux. Split out so the daemon can mount profiling exactly once on
// its own mux while still composing per-tenant metric handlers.
func PprofMux(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns an http.Handler serving the observability surface of
// one telemetry bundle:
//
//	/metrics       Prometheus text exposition of the registry
//	/trace         JSONL stream: the buffered ring, then live events
//	               until the client disconnects
//	/debug/pprof/  the standard runtime profiles
//
// Pass it to http.Serve on whatever listener the -listen flag opened.
// It is MetricsHandler + TraceHandler + PprofMux composed on one mux;
// multi-registry servers (the fubard daemon) mount those pieces
// per registry instead.
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(t))
	mux.Handle("/trace", TraceHandler(t))
	PprofMux(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("fubar telemetry\n\n/metrics\n/trace\n/debug/pprof/\n"))
	})
	return mux
}
