package main

import (
	"errors"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/audit"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// gatewayOptions is the part of the gateway's configuration the serve,
// shard and route modes take from the same flags.
func gatewayOptions(f *flags, reg *telemetry.Registry) gateway.Options {
	return gateway.Options{
		DefaultMaxDBs:   f.k,
		DefaultPerDB:    f.perDB,
		DefaultDeadline: f.deadline,
		MaxInflight:     f.maxInfl,
		Metrics:         reg,
	}
}

// debugBundle carries the handles behind the debug endpoints. The
// router has no metasearcher, so the pieces travel individually; every
// handler involved is nil-safe (a nil audit log serves empty records, a
// nil breaker set an empty list).
type debugBundle struct {
	reg      *telemetry.Registry
	audit    *audit.Log
	breakers *resilience.Set
	// identity and ring feed the versioned cluster-export endpoints
	// (/debug/export/spans, /debug/export/queries) the obscollector
	// scrapes.
	identity telemetry.Identity
	ring     *telemetry.RingCapture
	// topology, when non-nil, serves /debug/topology: the watcher's
	// applied topology and swap audit trail (shard and router; the
	// collector mounts the same handler on its own mux).
	topology http.Handler
	// refresh, when non-nil, serves /debug/refresh: the summary-refresh
	// manager's per-node drift state and swap generation.
	refresh http.Handler
}

// debugMux assembles the operational endpoints every mode with a
// metasearcher or router exposes: metrics, recent audit records,
// breaker states, the collector's exports and the pprof profilers.
func debugMux(d debugBundle) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg.Handler())
	mux.Handle("/debug/queries", d.audit.Handler())
	mux.Handle("/debug/queries/", d.audit.Handler())
	mux.Handle("/debug/breakers", d.breakers.Handler())
	if d.topology != nil {
		mux.Handle("/debug/topology", d.topology)
	}
	if d.refresh != nil {
		mux.Handle("/debug/refresh", d.refresh)
	}
	mux.Handle("/debug/export/spans", telemetry.ExportSpansHandler(d.identity, d.ring))
	mux.Handle("/debug/export/queries", d.audit.ExportHandler(d.identity))
	handlePprof(mux)
	return mux
}

// listenDebug serves the debug endpoints on their own listener in the
// background; the caller closes the returned server.
func listenDebug(addr string, d debugBundle) *http.Server {
	srv := &http.Server{Addr: addr, Handler: debugMux(d)}
	go func() {
		log.Printf("debug endpoints on http://%s/metrics (and /debug/queries, /debug/pprof, ...)", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("debug server: %v", err)
		}
	}()
	return srv
}

func handlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serve runs the process as a query service: the gateway API on -serve,
// the debug endpoints on the same listener — or on their own private
// listener when -debug-addr is set, so /debug/pprof and friends are not
// exposed wherever the API is. SIGINT/SIGTERM fails /v1/healthz first
// (so load balancers steer away), then drains in-flight requests under
// -drain-timeout before the listener closes — wire.ServeUntilSignal,
// the same shutdown dbnode and the collector run.
func serve(search gateway.SearchFunc, f *flags, gopts gateway.Options, dbg debugBundle) error {
	gw := gateway.For(search, gopts)
	var mux *http.ServeMux
	if f.debugAddr == "" {
		mux = debugMux(dbg)
	} else {
		defer listenDebug(f.debugAddr, dbg).Close()
		mux = http.NewServeMux()
	}
	mux.Handle(gateway.PathSearch, gw)
	mux.Handle(gateway.PathSearchStream, gw)
	mux.Handle(gateway.PathHealthz, gw)

	ln, err := net.Listen("tcp", f.serveAddr)
	if err != nil {
		return err
	}
	log.Printf("query API on http://%s%s (health %s, metrics /metrics)",
		ln.Addr(), gateway.PathSearch, gateway.PathHealthz)
	return wire.ServeUntilSignal(&http.Server{Handler: mux}, ln, gw.Gate, f.drainFor)
}
