package main

import (
	"expvar"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/obscollector"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// collectConfig is the -collect flag bundle.
type collectConfig struct {
	TopologyFile string
	TopologyPoll time.Duration
	RouterAddr   string
	ServeAddr    string
	Interval     time.Duration
	DrainFor     time.Duration
	Verbose      bool
	Profiles     obscollector.ProfileOptions
}

// runCollect runs the process as the cluster's observability collector:
// it owns no testbed, no summaries, and answers no queries — it scrapes
// every member of the -topology fleet (plus the router named by
// -collect-router) on a fixed interval and serves the assembled view:
//
//	/debug/cluster/metrics     fleet rollup + per-instance series
//	/debug/cluster/trace/{id}  one cross-process trace, stitched
//	/debug/cluster/traces      index of recently seen trace IDs
//	/debug/cluster/instances   scrape status per member
//	/debug/cluster/profiles    continuous-profiling captures (-profile-dir)
//
// plus its own /metrics, /debug/vars, and /debug/pprof.
func runCollect(cfg collectConfig) error {
	if cfg.TopologyFile == "" {
		log.Fatal("-collect requires -topology: the scrape set comes from the cluster topology")
	}
	if cfg.ServeAddr == "" {
		log.Fatal("-collect requires -serve: the collector's only job is its HTTP surface")
	}
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("metasearch")
	var logger *slog.Logger
	if cfg.Verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	watcher, err := shardmap.NewWatcher(cfg.TopologyFile, shardmap.WatcherOptions{
		Interval: cfg.TopologyPoll,
		Metrics:  reg,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	c, err := obscollector.New(
		obscollector.TargetsFromTopology(watcher.Snapshot().Topology, cfg.RouterAddr),
		obscollector.Options{
			Interval: cfg.Interval,
			Metrics:  reg,
			Logger:   logger,
			Profiles: cfg.Profiles,
		})
	if err != nil {
		return err
	}
	// Record which generation the initial scrape set came from, then
	// follow topology version bumps: swapped-in members are scraped from
	// the next sweep, departed members' state is dropped.
	c.SetTargets(c.Targets(), watcher.Generation())
	watcher.Subscribe(func(snap *shardmap.Snapshot) {
		targets := obscollector.TargetsFromTopology(snap.Topology, cfg.RouterAddr)
		c.SetTargets(targets, snap.Generation)
		log.Printf("topology generation %d applied: scraping %d members", snap.Generation, len(targets))
	})
	if cfg.TopologyPoll > 0 {
		watcher.Start()
		defer watcher.Stop()
	}
	for _, t := range c.Targets() {
		if t.Identity.Shard != "" {
			log.Printf("scraping %s (%s %s)", t.BaseURL, t.Identity.Role, t.Identity.Shard)
		} else {
			log.Printf("scraping %s (%s)", t.BaseURL, t.Identity.Role)
		}
	}
	if cfg.Profiles.Enable {
		log.Printf("continuous profiling into %s (every %v, keep %d per kind)",
			cfg.Profiles.Dir, cfg.Profiles.Interval, cfg.Profiles.Keep)
	}
	c.Start()
	defer c.Stop()

	mux := http.NewServeMux()
	mux.Handle("/debug/cluster/", c.Handler())
	mux.Handle("/debug/topology", watcher.Handler())
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", cfg.ServeAddr)
	if err != nil {
		return err
	}
	log.Printf("cluster observability on http://%s/debug/cluster/metrics (traces /debug/cluster/traces, %d members)",
		ln.Addr(), len(c.Targets()))

	return wire.ServeUntilSignal(&http.Server{Handler: mux}, ln, nil, cfg.DrainFor)
}
