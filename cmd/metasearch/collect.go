package main

import (
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/obscollector"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// profileEvery is the pause between continuous-profiling captures: each
// tick profiles one member, rotating through the fleet.
const profileEvery = 30 * time.Second

// runCollect runs the process as the cluster's observability collector:
// it owns no testbed, no summaries, and answers no queries — it scrapes
// every member of the -topology fleet (plus the router named by
// -collect-router) every -scrape-interval and serves the assembled view:
//
//	/debug/cluster/metrics     fleet rollup + per-instance series
//	/debug/cluster/trace/{id}  one cross-process trace, stitched
//	/debug/cluster/traces      index of recently seen trace IDs
//	/debug/cluster/instances   scrape status per member
//	/debug/cluster/profiles    continuous-profiling captures (-profile-dir)
//
// plus its own /metrics and /debug/pprof.
func runCollect(f *flags, _ []string) error {
	reg := telemetry.NewRegistry()
	var logger *slog.Logger
	if f.verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	watcher, err := shardmap.NewWatcher(f.topologyFile, shardmap.WatcherOptions{
		Metrics: reg,
		Logger:  logger,
	})
	if err != nil {
		return err
	}
	c, err := obscollector.New(
		obscollector.TargetsFromTopology(watcher.Snapshot().Topology, f.collectRouter),
		obscollector.Options{
			Metrics:    reg,
			Logger:     logger,
			ProfileDir: f.profileDir,
		})
	if err != nil {
		return err
	}
	// Record which generation the initial scrape set came from, then
	// follow topology version bumps: swapped-in members are scraped from
	// the next sweep, departed members' state is dropped.
	c.SetTargets(c.Targets(), watcher.Snapshot().Generation)
	watcher.OnSwap(func(snap *shardmap.Snapshot) error {
		targets := obscollector.TargetsFromTopology(snap.Topology, f.collectRouter)
		c.SetTargets(targets, snap.Generation)
		log.Printf("topology generation %d applied: scraping %d members", snap.Generation, len(targets))
		return nil
	})
	defer pollTopology(watcher, f)()
	for _, t := range c.Targets() {
		if t.Identity.Shard != "" {
			log.Printf("scraping %s (%s %s)", t.BaseURL, t.Identity.Role, t.Identity.Shard)
		} else {
			log.Printf("scraping %s (%s)", t.BaseURL, t.Identity.Role)
		}
	}
	defer clock.Every(nil, f.scrapeEvery, c.ScrapeOnce)()
	if f.profileDir != "" {
		log.Printf("continuous profiling into %s (one member every %v)", f.profileDir, profileEvery)
		defer clock.Every(nil, profileEvery, c.ProfileOnce)()
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/cluster/", c.Handler())
	mux.Handle("/debug/topology", watcher.Handler())
	mux.Handle("/metrics", reg.Handler())
	handlePprof(mux)

	ln, err := net.Listen("tcp", f.serveAddr)
	if err != nil {
		return err
	}
	log.Printf("cluster observability on http://%s/debug/cluster/metrics (traces /debug/cluster/traces, %d members)",
		ln.Addr(), len(c.Targets()))

	return wire.ServeUntilSignal(&http.Server{Handler: mux}, ln, nil, f.drainFor)
}
