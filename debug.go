package atmem

// This file is the opt-in debug HTTP listener (Options.DebugAddr): a
// small stdlib server exposing the live metrics registry as Prometheus
// text (/metrics), the latest epoch scorecard as JSON (/epochz), a
// liveness probe (/healthz), and net/http/pprof under /debug/pprof/.
// Every handler reads only data that is safe from a foreign goroutine
// mid-run — registry atomics, the atomic latest-scorecard pointer, and
// the simulator's atomic quarantine ledger — never the runtime's
// single-threaded control-plane state.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// healthzQuarantineThreshold is the quarantined-bytes level at which
// /healthz stops reporting "ok": one health granule (2 MiB) retired is
// routine attrition, but holding this much of the fast tier hostage
// means placement quality is measurably degraded.
const healthzQuarantineThreshold = 2 << 20

// debugServer owns the listener's lifecycle; Runtime.Close shuts it
// down.
type debugServer struct {
	ln  net.Listener
	srv *http.Server

	closeOnce sync.Once
	closeErr  error
}

// startDebugServer binds addr (":0" picks a free port — tests use it)
// and serves the debug mux on a background goroutine. The runtime
// pointer is only used through its goroutine-safe accessors.
func startDebugServer(addr string, r *Runtime) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("atmem: debug listener %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/epochz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		sc := r.LastScorecard()
		if sc == nil {
			// No governed epoch yet: an empty object, not a 404 — the
			// scrape loop in CI polls this before the first epoch lands.
			fmt.Fprintln(w, "{}")
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sc)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := struct {
			Status           string `json:"status"`
			Epoch            int    `json:"epoch"`
			QuarantinedBytes uint64 `json:"quarantined_bytes"`
			BreakerOpen      bool   `json:"breaker_open"`
			Shedding         bool   `json:"shedding"`
		}{Status: "ok", QuarantinedBytes: r.sys.Quarantined()}
		if sc := r.LastScorecard(); sc != nil {
			st.Epoch = sc.Epoch
		}
		// An honest probe: "ok" only while the placement loop is actually
		// healthy. The breaker being open or a material slice of the fast
		// tier sitting in quarantine means degraded service; a broker
		// actively shedding best-effort tenants outranks both.
		st.BreakerOpen = r.breakerOpenA.Load()
		if st.BreakerOpen || st.QuarantinedBytes >= healthzQuarantineThreshold {
			st.Status = "degraded"
		}
		if r.tenant.Broker().Shedding() {
			st.Shedding = true
			st.Status = "shedding"
		}
		if st.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(st)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &debugServer{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go func() { _ = d.srv.Serve(ln) }()
	return d, nil
}

// close shuts the listener down, idempotently.
func (d *debugServer) close() error {
	d.closeOnce.Do(func() { d.closeErr = d.srv.Close() })
	return d.closeErr
}

// DebugAddr returns the debug listener's bound address ("" when
// Options.DebugAddr was unset). With DebugAddr ":0" this is where the
// kernel actually put the listener.
func (r *Runtime) DebugAddr() string {
	if r.debug == nil {
		return ""
	}
	return r.debug.ln.Addr().String()
}

// Close releases the runtime's external resources, in dependency
// order: a clock charge an overlapped placement left pending is settled
// in full (DrainAsync), every live object is freed and the runtime
// departs its broker (returning its fast-tier share and residency to
// the shared pool), and the debug listener is shut down. Nil-safe and
// idempotent; a solo runtime without a debug listener or a pending
// overlap charge needs no Close.
func (r *Runtime) Close() error {
	if r == nil {
		return nil
	}
	r.DrainAsync()
	var errs []error
	for _, o := range r.Objects() {
		if err := r.Free(o); err != nil {
			errs = append(errs, err)
		}
	}
	r.tenant.Depart()
	if r.debug != nil {
		if err := r.debug.close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
