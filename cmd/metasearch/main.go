// Command metasearch is an end-to-end demonstration metasearcher: it
// builds a synthetic Web testbed, registers every database with the
// library's Metasearcher (query-based sampling, shrinkage-based
// summaries, adaptive selection), and answers queries from stdin (or
// the command line) by printing the selected databases and the merged
// document ranking.
//
// Usage:
//
//	metasearch [-scale small|default] [-scorer cori|bgloss|lm] [-k 5] \
//	           [-serve :8090] [-listen :8080] [-remote host:port,...] \
//	           [-debug-addr :6060] [-slo-latency 500ms] [-slo-target 0.99] \
//	           [-v] [-explain] [-audit queries.jsonl] \
//	           [-save state.json] [-load state.json] \
//	           [-deadline 2s] [-hedge-after 100ms] [-probe-interval 2s] \
//	           [-cache-size 1024] [-cache-ttl 10m] [-max-inflight 64] \
//	           [-drain-timeout 5s] \
//	           [query ...]
//
// With no query arguments, queries are read one per line from stdin.
//
// With -serve, the process runs as a query service instead of a REPL:
// the gateway API (GET/POST /v1/search, GET /v1/search/stream for
// SSE/NDJSON progressive delivery, GET /v1/healthz) and the debug
// endpoints below share one listener, requests are answered through the
// two-tier query cache (selection decisions and whole results; -cache-size 0
// turns it off), -max-inflight sheds excess load with 429 + Retry-After,
// and SIGINT/SIGTERM drains in-flight requests (up to -drain-timeout)
// before exiting. -refresh-interval starts the background summary-refresh
// manager: every interval each live database is re-probed with a cheap
// -refresh-docs sample, the probe's term distribution is compared to the
// stored summary by Jensen-Shannon divergence, and a node past
// -drift-threshold is re-sampled at full size and hot-swapped (with its
// shrinkage ancestors recomputed and both cache tiers invalidated)
// without interrupting traffic; /debug/refresh reports per-node drift
// state. Each request's deadline is -deadline unless the
// client passes an explicit timeout parameter. -debug-addr moves the
// debug endpoints to a separate (private) listener, keeping the public
// one API-only. Every request is judged against the serving SLOs
// (-slo-latency, -slo-target); /debug/slo reports multi-window
// error-budget burn rates.
//
// Performance is measured by the repo benchmark (go run ./benchmark,
// see benchmark/README.md), not by this command.
//
// With -remote, the metasearcher talks to dbnode servers over the wire
// protocol instead of registering in-process databases; the nodes must
// serve shards of the same testbed (same dbnode -scale and -seed) for
// the term spaces to line up. Every wire request carries the query's
// trace context (X-Trace-Id / X-Parent-Span), so a dbnode's spans join
// this process's traces (both export them at /debug/export/spans).
//
// Cluster modes (see DESIGN.md §9.5 and the README runbook):
//
//	metasearch -shard-id shard-00 -topology topo.json -load state.json -serve :8091
//	metasearch -route -topology topo.json -serve :8090
//	metasearch -collect -topology topo.json -collect-router 127.0.0.1:8090 -serve :8099
//
// -shard-id runs one topology shard: the process dials its consistent-
// hash slice of the databases (each as a replica set with per-replica
// breakers and failover), loads the full summary store from -load, and
// scopes the search fan-out to its slice. -route runs the scatter-
// gather router in front of the shards: it owns no summaries, fans
// /v1/search out to every shard, and merges the per-shard rankings into
// bit-identically the single-process answer. Both serve the standard
// gateway API; /v1/healthz reports the build version and (for shards)
// the shard id; the router's additionally reports every shard's breaker
// state and last health-probe result. -collect runs the cluster
// observability plane (see DESIGN.md §12): it scrapes every topology
// member's metrics, recent spans, and audit records, and serves the
// fleet rollup at /debug/cluster/metrics, stitched cross-process traces
// at /debug/cluster/trace/{id}, and — with -profile-dir — a continuous-
// profiling index at /debug/cluster/profiles. Every serving mode
// exports its recent spans at /debug/export/spans and audit records at
// /debug/export/queries for the collector to scrape.
//
// With -explain, each query is followed by its selection audit record:
// every candidate database's score, the shrink-or-not verdict with the
// score mean/σ behind it and the λ mixture used, per-node call
// costs, and merged-result provenance. -audit appends the same records
// as JSONL to a file.
//
// With -listen, an HTTP server exposes the operational surface while
// the process runs:
//
//	/metrics           pipeline counters/gauges/histograms and p50/p95/p99
//	                   latency windows (Prometheus text; ?format=json for
//	                   a JSON snapshot)
//	/debug/queries     recent per-query audit records (?n=50 for more);
//	                   /debug/queries/{id} returns one record by id
//	/debug/breakers    every node's circuit-breaker state (state, window,
//	                   trips, short-circuits)
//	/debug/slo         serving-objective report: burn rate and remaining
//	                   error budget per objective and window (with
//	                   -serve; 404 otherwise)
//	/debug/refresh     summary-refresh state: swap generation and each
//	                   node's last divergence, drift count, and swaps
//	                   (with -refresh-interval)
//	/debug/pprof       the standard Go profiling endpoints
//
// -deadline bounds each query's whole fan-out; -hedge-after tunes when a
// slow node query is hedged with a duplicate (0 auto-derives the
// threshold from the observed wire p95); -probe-interval enables
// background health probes that close a tripped node's breaker as soon
// as it recovers. -save persists built summaries (atomic write, content
// checksum); -load restores them, skipping sampling — with -remote, the
// dialed nodes keep their live handles, so Search works immediately.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/audit"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/refresh"
	"repro/internal/resilience"
	"repro/internal/shardmap"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// sanitize and sanitizeAll map the synthetic testbed's underscore
// vocabulary into the full text pipeline's token space (see
// experiments.Sanitize); cmd/dbnode applies the same mapping when
// serving a testbed shard, so -remote mode sees identical terms.
func sanitize(w string) string { return experiments.Sanitize(w) }

func sanitizeAll(ws []string) []string { return experiments.SanitizeAll(ws) }

// flags holds the value of every command-line flag. registerFlags is the
// only place a flag is defined, which is what lets the docs-vs-flags test
// enumerate them.
type flags struct {
	scale, scorerName, listen, remote, auditFile, saveFile, loadFile string
	serveAddr, debugAddr, topologyFile, shardID                      string
	collectRouter, profileDir                                        string

	k, perDB, cacheSize, maxInfl, refreshDocs, profileCPU, profileKeep int
	seed                                                               int64
	sloTarget, driftThresh                                             float64
	verbose, explain, routeMode, collectMode                           bool

	deadline, hedgeAfter, probeEvery, cacheTTL, drainFor, sloLatency time.Duration
	refreshEvery, topoPoll, scrapeEvery, profileEvery                time.Duration
}

func registerFlags(fs *flag.FlagSet) *flags {
	f := &flags{}
	fs.StringVar(&f.scale, "scale", "small", "testbed scale: small | default")
	fs.StringVar(&f.scorerName, "scorer", "cori", "selection algorithm: cori | bgloss | lm")
	fs.IntVar(&f.k, "k", 5, "databases to select per query")
	fs.IntVar(&f.perDB, "perdb", 3, "documents to retrieve per selected database")
	fs.Int64Var(&f.seed, "seed", 1, "synthetic world seed")
	fs.StringVar(&f.listen, "listen", "", "serve /metrics, /debug/* and /debug/pprof on this address (e.g. :8080)")
	fs.StringVar(&f.remote, "remote", "", "comma-separated dbnode addresses (host:port,...); metasearch over these remote nodes instead of in-process databases (start them with: dbnode -testbed <name> -scale ... -seed ...)")
	fs.BoolVar(&f.verbose, "v", false, "log pipeline progress to stderr")
	fs.BoolVar(&f.explain, "explain", false, "print each query's selection audit record (scores, shrinkage verdicts, per-node costs)")
	fs.StringVar(&f.auditFile, "audit", "", "append every query's audit record to this file as JSONL")
	fs.StringVar(&f.saveFile, "save", "", "after building summaries, save them to this file (atomic write + checksum)")
	fs.StringVar(&f.loadFile, "load", "", "load summaries from this file instead of sampling (pairs with -remote for live handles)")
	fs.DurationVar(&f.deadline, "deadline", 0, "overall per-query fan-out deadline budget (0 = none); with -serve, also the default per-request deadline")
	fs.DurationVar(&f.hedgeAfter, "hedge-after", 0, "hedge a node query after this latency (0 = auto from observed p95, negative = off)")
	fs.DurationVar(&f.probeEvery, "probe-interval", 0, "background health-probe interval for tripped nodes (0 = off)")
	fs.StringVar(&f.serveAddr, "serve", "", "run as a query service: the gateway API (/v1/search, /v1/healthz) plus the debug endpoints on this address, until SIGINT/SIGTERM")
	fs.IntVar(&f.cacheSize, "cache-size", 1024, "entries per query-cache tier; 0 disables the selection and result caches")
	fs.DurationVar(&f.cacheTTL, "cache-ttl", 0, "selection-cache TTL (0 = default 10m; the result tier keeps its shorter default)")
	fs.IntVar(&f.maxInfl, "max-inflight", 0, "shed query-API requests past this many in flight with 429 + Retry-After (0 = unlimited)")
	fs.DurationVar(&f.drainFor, "drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests to drain")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "with -serve: move the debug endpoints (/metrics, /debug/*) to their own listener on this address, keeping the public listener API-only")
	fs.DurationVar(&f.sloLatency, "slo-latency", 500*time.Millisecond, "latency-SLO threshold: requests slower than this count against the latency objective")
	fs.Float64Var(&f.sloTarget, "slo-target", 0.99, "latency-SLO target: required fraction of requests under -slo-latency")

	fs.DurationVar(&f.refreshEvery, "refresh-interval", 0, "re-probe every database's live contents at this interval and rebuild drifted summaries in place (0 = off; incompatible with -shard-id)")
	fs.Float64Var(&f.driftThresh, "drift-threshold", 0.3, "Jensen-Shannon divergence (nats, max ln 2 ≈ 0.69) between the stored summary and a fresh probe beyond which the summary is rebuilt")
	fs.IntVar(&f.refreshDocs, "refresh-docs", 50, "documents per drift probe; small keeps checks cheap, the full -scale sample size is used only for an actual rebuild")

	fs.StringVar(&f.topologyFile, "topology", "", "cluster topology file (shardmap JSON); required by -shard-id, -route, and -collect")
	fs.DurationVar(&f.topoPoll, "topology-poll", 2*time.Second, "with a cluster mode: poll -topology for version bumps and apply them live — replica sets swap under traffic, the router's ring follows, the collector rescrapes (0 disables live reconfiguration)")
	fs.StringVar(&f.shardID, "shard-id", "", "serve one topology shard: dial this shard's replicated dbnodes and scope the search fan-out to its databases (requires -topology and -load)")
	fs.BoolVar(&f.routeMode, "route", false, "run as the cluster's scatter-gather router: fan /v1/search out to every shard in -topology and merge the rankings (no summaries are loaded in this process; requires -topology and -serve)")

	fs.BoolVar(&f.collectMode, "collect", false, "run as the cluster observability collector: scrape every member of -topology (plus -collect-router) and serve /debug/cluster/* on -serve")
	fs.StringVar(&f.collectRouter, "collect-router", "", "with -collect: the router's address, added to the scrape set with role \"router\"")
	fs.DurationVar(&f.scrapeEvery, "scrape-interval", 5*time.Second, "with -collect: how often every fleet member is scraped")
	fs.StringVar(&f.profileDir, "profile-dir", "", "with -collect: enable continuous profiling, storing pprof captures in this directory")
	fs.DurationVar(&f.profileEvery, "profile-interval", 30*time.Second, "with -collect: pause between profile captures (each tick profiles one member, rotating through the fleet)")
	fs.IntVar(&f.profileCPU, "profile-cpu-seconds", 5, "with -collect: length of each CPU profile capture")
	fs.IntVar(&f.profileKeep, "profile-keep", 32, "with -collect: retained profiles per kind (cpu, heap); oldest deleted first")
	return f
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("metasearch: ")
	f := registerFlags(flag.CommandLine)
	flag.Parse()

	// Mode misuse that the flags alone decide is refused here, before the
	// testbed build that every mode but -collect pays for.
	switch {
	case f.collectMode && f.topologyFile == "":
		log.Fatal("-collect requires -topology: the scrape set comes from the cluster topology")
	case f.collectMode && f.serveAddr == "":
		log.Fatal("-collect requires -serve: the collector's only job is its HTTP surface")
	case f.refreshEvery > 0 && f.shardID != "":
		log.Fatal("-refresh-interval cannot be combined with -shard-id: shards serve a shared offline summary store; rebuild it centrally and reload")
	case f.shardID != "" && f.topologyFile == "":
		log.Fatal("-shard-id requires -topology")
	case f.shardID != "" && f.loadFile == "":
		log.Fatal("-shard-id requires -load: shards serve offline-built summaries, they do not sample")
	case f.routeMode && f.topologyFile == "":
		log.Fatal("-route requires -topology")
	case f.routeMode && f.serveAddr == "":
		log.Fatal("-route requires -serve: a router has no REPL")
	}

	if f.collectMode {
		// The collector owns no testbed and answers no queries; it is
		// dispatched before the world is built.
		if err := runCollect(f); err != nil {
			log.Fatal(err)
		}
		return
	}

	sc := experiments.TestScale()
	if f.scale == "default" {
		sc = experiments.DefaultScale()
	}
	sc.Seed = f.seed

	log.Print("building Web testbed...")
	w, err := experiments.BuildWorld(experiments.Web, sc)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d databases, %d documents", len(w.Bed.Databases), w.Bed.TotalDocs())

	if f.routeMode {
		// The router owns no summaries and no metasearcher; it fans out
		// to the topology's shards and merges. Everything it needs is
		// assembled in route.go.
		if err := runRoute(w, f); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Observability wiring: a logger for -v, the span ring, and the
	// metrics registry that the HTTP endpoints serve.
	opts := repro.Options{
		SampleSize:  sc.SampleTarget,
		Scorer:      f.scorerName,
		SeedLexicon: sanitizeAll(w.Lexicon),
		Seed:        f.seed,
		Parallelism: runtime.GOMAXPROCS(0),
		// The synthetic vocabulary is not English: stemming or stopword
		// removal would mangle its token space.
		KeepStopwords: true,
		NoStemming:    true,
		Resilience: repro.ResilienceOptions{
			DeadlineBudget: f.deadline,
			HedgeAfter:     f.hedgeAfter,
		},
		Cache: repro.CacheConfig{
			Disable: f.cacheSize == 0,
			Size:    f.cacheSize,
			TTL:     f.cacheTTL,
		},
	}
	if f.verbose {
		opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// Tracing is always on into a bounded ring, so the cluster collector
	// can assemble this process's recent spans via /debug/export/spans.
	ring := telemetry.NewRingCapture(0)
	opts.Observer = ring
	if f.auditFile != "" {
		af, err := os.OpenFile(f.auditFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("audit log: %v", err)
		}
		defer af.Close()
		opts.AuditLog = af
	}
	m := repro.New(opts)

	// The process's identity stamped on its span and audit exports;
	// shards carry their shard id so fleet views can slice by it.
	selfAddr := f.serveAddr
	if selfAddr == "" {
		selfAddr = f.listen
	}
	if selfAddr == "" {
		selfAddr = fmt.Sprintf("metasearch-pid%d", os.Getpid())
	}
	selfRole := "metasearch"
	if f.shardID != "" {
		selfRole = "shard"
	}
	self := telemetry.Identity{Instance: selfAddr, Role: selfRole, Shard: f.shardID}

	// The SLO tracker judges every gateway request against the serving
	// objectives; /debug/slo reports multi-window error-budget burn.
	var tracker *slo.Tracker
	if f.serveAddr != "" {
		objectives := slo.DefaultObjectives(f.sloLatency)
		objectives[0].Target = f.sloTarget
		tracker = slo.New(slo.Config{Objectives: objectives, Registry: m.Metrics()})
	}

	// In REPL mode, -listen serves the debug endpoints on their own
	// listener; it is shut down gracefully when the REPL ends. (In -serve
	// mode the gateway listener carries the debug endpoints itself unless
	// -debug-addr moves them.)
	if f.listen != "" && f.serveAddr == "" {
		srv := &http.Server{Addr: f.listen, Handler: debugMux(metasearcherDebug(m, self, ring), tracker)}
		go func() {
			log.Printf("telemetry on http://%s/metrics (and /debug/queries, /debug/pprof)", f.listen)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("telemetry server: %v", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), f.drainFor)
			defer cancel()
			srv.Shutdown(sctx)
		}()
	}

	// Register the databases: either every testbed database in-process
	// under its directory category (the paper's "existing classification"
	// case, so no probe training is needed), or — with -remote — the
	// dbnode servers at the given addresses, each under the category it
	// advertises. A dbnode serving a shard of the same testbed (same
	// -scale and -seed) yields the same terms, so the pipeline produces
	// identical summaries and rankings either way.
	var shardScope map[string]bool
	var topoWatcher *shardmap.Watcher
	var topoGen, topoSwapMs atomic.Int64
	if f.shardID != "" {
		topoWatcher, err = shardmap.NewWatcher(f.topologyFile, shardmap.WatcherOptions{
			Interval: f.topoPoll,
			Metrics:  m.Metrics(),
		})
		if err != nil {
			log.Fatal(err)
		}
		topo := topoWatcher.Snapshot().Topology
		topoGen.Store(topoWatcher.Generation())
		assigns, err := topo.ShardAssignments(f.shardID)
		if err != nil {
			log.Fatal(err)
		}
		shardScope = make(map[string]bool, len(assigns))
		for _, a := range assigns {
			rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  m.Breakers(),
				Metrics:   m.Metrics(),
				Client:    repro.RemoteDatabaseOptions{Metrics: m.Metrics(), Budget: m.RetryBudget()},
			})
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("shard %s: %s (%d docs, category %q, %d replicas, preferred #%d)",
				f.shardID, rdb.Name(), rdb.NumDocs(), rdb.Category(), rdb.Replicas(), rdb.Preferred())
			if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
				log.Fatal(err)
			}
			shardScope[a.Database] = true
		}
		log.Printf("shard %s owns %d of the topology's %d databases", f.shardID, len(assigns), len(topo.Databases))
	} else if f.remote != "" {
		for _, addr := range strings.Split(f.remote, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			rdb, err := repro.DialRemoteDatabase(context.Background(), addr, repro.RemoteDatabaseOptions{
				Metrics: m.Metrics(),
				Budget:  m.RetryBudget(),
			})
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("connected to %s: %s (%d docs, category %q)",
				rdb.BaseURL(), rdb.Name(), rdb.NumDocs(), rdb.Category())
			if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		for _, db := range w.Bed.Databases {
			docs := make([][]string, db.Index.NumDocs())
			for id := range docs {
				docs[id] = sanitizeAll(db.Index.Doc(index.DocID(id)))
			}
			cat := w.Bed.Tree.Node(db.Category).Name
			if err := m.AddDatabase(repro.NewLocalDatabaseFromTerms(db.Name, docs), cat); err != nil {
				log.Fatal(err)
			}
		}
	}
	if f.loadFile != "" {
		log.Printf("loading summaries from %s...", f.loadFile)
		if shardScope != nil {
			// Shard-scoped load: the full summary store (selection is a
			// function of collection-wide statistics) with the fan-out
			// restricted to this shard's slice.
			err = m.LoadFileFiltered(f.loadFile, func(name string) bool { return shardScope[name] })
		} else {
			err = m.LoadFile(f.loadFile)
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		log.Print("sampling databases and building shrunk summaries (QBS + frequency estimation)...")
		if err := m.BuildSummaries(); err != nil {
			log.Fatal(err)
		}
	}
	if f.saveFile != "" {
		if err := m.SaveFile(f.saveFile); err != nil {
			log.Fatal(err)
		}
		log.Printf("summaries saved to %s", f.saveFile)
	}
	if f.probeEvery > 0 {
		stop := m.StartHealthProbes(f.probeEvery)
		defer stop()
	}

	// Background summary refresh: periodically re-probe every live
	// database and rebuild summaries that have drifted past the
	// threshold, hot-swapping them under traffic. Shards must not do
	// this independently — a per-shard rebuild would fork the
	// collection-wide statistics the cluster's bit-identical merge rests
	// on — so the flag is refused there; refresh the offline store and
	// roll it out with -load instead.
	var refresher *refresh.Manager
	if f.refreshEvery > 0 {
		refresher = refresh.NewManager(m, refresh.Options{
			Interval:   f.refreshEvery,
			Threshold:  f.driftThresh,
			SampleDocs: f.refreshDocs,
			Metrics:    m.Metrics(),
			Logger:     opts.Logger,
		})
		refresher.Start()
		defer refresher.Stop()
		log.Printf("summary refresh every %v (JS drift threshold %.3g, %d-doc probes)",
			f.refreshEvery, f.driftThresh, f.refreshDocs)
	}

	// Live reconfiguration: once summaries are loaded, topology version
	// bumps swap this shard's replica sets and scope under traffic.
	if topoWatcher != nil {
		topoWatcher.Subscribe(func(snap *shardmap.Snapshot) {
			assigns, err := snap.Topology.ShardAssignments(f.shardID)
			if err != nil {
				log.Printf("topology generation %d: %v; keeping current assignments", snap.Generation, err)
				return
			}
			ras := make([]repro.ReplicaAssignment, len(assigns))
			for i, a := range assigns {
				ras[i] = repro.ReplicaAssignment{
					Database: a.Database, Category: a.Category,
					Replicas: a.Replicas, Preferred: a.Preferred,
				}
			}
			rep, err := m.ApplyReplicaAssignments(ras, repro.RemoteDatabaseOptions{
				Metrics: m.Metrics(), Budget: m.RetryBudget(),
			})
			if err != nil {
				log.Printf("topology swap (generation %d) failed: %v", snap.Generation, err)
				return
			}
			topoGen.Store(snap.Generation)
			topoSwapMs.Store(time.Now().UnixMilli())
			log.Printf("topology generation %d applied: attached %d, detached %d, unknown %d, scope_changed %v",
				snap.Generation, len(rep.Attached), len(rep.Detached), len(rep.Unknown), rep.ScopeChanged)
		})
		if f.topoPoll > 0 {
			topoWatcher.Start()
			defer topoWatcher.Stop()
		}
	}

	gopts := gateway.Options{
		DefaultMaxDBs:   f.k,
		DefaultPerDB:    f.perDB,
		DefaultDeadline: f.deadline,
		MaxInflight:     f.maxInfl,
		Metrics:         m.Metrics(),
		SLO:             tracker,
		ShardID:         f.shardID,
	}
	if topoWatcher != nil {
		// /v1/healthz reports the generation this shard has APPLIED (and
		// when), not merely what the watcher has seen: a swap the
		// metasearcher rejected must not read as done.
		gopts.Topology = func() *wire.TopologyStatus {
			return &wire.TopologyStatus{
				Generation:     topoGen.Load(),
				LastSwapUnixMs: topoSwapMs.Load(),
			}
		}
	}

	if f.serveAddr != "" {
		dbg := metasearcherDebug(m, self, ring)
		if topoWatcher != nil {
			dbg.topology = topoWatcher.Handler()
		}
		if refresher != nil {
			dbg.refresh = refresher.Handler()
		}
		if err := serve(m, w, f.serveAddr, f.debugAddr, gopts, tracker, f.drainFor, dbg); err != nil {
			log.Fatal(err)
		}
		return
	}

	answer := func(query string) {
		if strings.TrimSpace(query) == "" {
			return
		}
		sels, err := m.Select(query, f.k)
		if err != nil {
			fmt.Printf("%-40s -> %v\n", query, err)
			return
		}
		if len(sels) == 0 {
			fmt.Printf("%-40s -> no database selected\n", query)
			return
		}
		fmt.Printf("%s ->\n", query)
		for i, s := range sels {
			mark := " "
			if s.Shrinkage {
				mark = "*" // shrunk summary used for this query/database
			}
			info, _ := m.Info(s.Database)
			fmt.Printf("  %2d.%s %-34s score %-12.4g %s\n", i+1, mark, s.Database, s.Score, info.Category)
		}
		results, err := m.Search(query, f.k, f.perDB)
		if err != nil {
			fmt.Printf("  search: %v\n", err)
			if f.explain {
				m.Audit().Last().Format(os.Stdout)
			}
			return
		}
		if len(results) > 8 {
			results = results[:8]
		}
		for _, res := range results {
			fmt.Printf("     doc %s/%d  %.4f\n", res.Database, res.DocID, res.Score)
		}
		if f.explain {
			m.Audit().Last().Format(os.Stdout)
		}
	}

	if flag.NArg() > 0 {
		answer(strings.Join(flag.Args(), " "))
		return
	}

	printExampleWords(w)
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		answer(scanner.Text())
		fmt.Print("> ")
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
	// scrapes; a nil ring skips the span export.
	identity telemetry.Identity
	ring     *telemetry.RingCapture
	// topology, when non-nil, serves /debug/topology: the process's view
	// of the live topology (shard: the watcher's file view; router: the
	// active ring with its swap audit trail).
	topology http.Handler
	// refresh, when non-nil, serves /debug/refresh: the summary-refresh
	// manager's per-node drift state and swap generation.
	refresh http.Handler
}

// metasearcherDebug is the debug surface of a (standalone or shard)
// metasearcher process.
func metasearcherDebug(m *repro.Metasearcher, id telemetry.Identity, ring *telemetry.RingCapture) debugBundle {
	return debugBundle{reg: m.Metrics(), audit: m.Audit(), breakers: m.Breakers(), identity: id, ring: ring}
}

// debugMux assembles the operational endpoints every serving mode
// exposes: metrics, recent audit records, breaker states, the SLO
// report, and the pprof profilers.
func debugMux(d debugBundle, tracker *slo.Tracker) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg.Handler())
	mux.Handle("/debug/queries", d.audit.Handler())
	mux.Handle("/debug/queries/", d.audit.Handler())
	mux.Handle("/debug/breakers", d.breakers.Handler())
	mux.Handle("/debug/slo", tracker.Handler())
	if d.topology != nil {
		mux.Handle("/debug/topology", d.topology)
	}
	if d.refresh != nil {
		mux.Handle("/debug/refresh", d.refresh)
	}
	if d.ring != nil {
		mux.Handle("/debug/export/spans", telemetry.ExportSpansHandler(d.identity, d.ring))
	}
	mux.Handle("/debug/export/queries", d.audit.ExportHandler(d.identity.Instance, d.identity.Role, d.identity.Shard))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs the process as a query service: the gateway API on addr,
// the debug endpoints on the same listener — or on their own private
// listener when debugAddr is set, so /debug/pprof and friends are not
// exposed wherever the API is. SIGINT/SIGTERM fails /v1/healthz first
// (so load balancers steer away), then drains in-flight requests under
// the drain timeout before the listener closes — wire.ServeUntilSignal,
// the same shutdown dbnode and the collector run.
func serve(s gateway.Searcher, w *experiments.World, addr, debugAddr string, gopts gateway.Options, tracker *slo.Tracker, drainFor time.Duration, dbg debugBundle) error {
	gw := gateway.New(s, gopts)
	var mux *http.ServeMux
	if debugAddr == "" {
		mux = debugMux(dbg, tracker)
	} else {
		mux = http.NewServeMux()
		dsrv := &http.Server{Addr: debugAddr, Handler: debugMux(dbg, tracker)}
		go func() {
			log.Printf("debug endpoints on http://%s/metrics (and /debug/slo, /debug/pprof, ...)", debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("debug server: %v", err)
			}
		}()
		defer dsrv.Close()
	}
	mux.Handle(gateway.PathSearch, gw)
	mux.Handle(gateway.PathSearchStream, gw)
	mux.Handle(gateway.PathHealthz, gw)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("query API on http://%s%s (health %s, metrics /metrics)",
		ln.Addr(), gateway.PathSearch, gateway.PathHealthz)
	printExampleWords(w)

	return wire.ServeUntilSignal(&http.Server{Handler: mux}, ln, gw.Gate, drainFor)
}

// printExampleWords shows a few topical words the user (or a smoke
// test) can query with.
func printExampleWords(w *experiments.World) {
	if v := w.Bed.Gen.CategoryVocab(mustLookup(w, "Heart")); v != nil {
		fmt.Printf("example query words: %s %s %s (Heart topic)\n",
			sanitize(v.Word(3)), sanitize(v.Word(20)), sanitize(v.Word(50)))
	}
}

func mustLookup(w *experiments.World, name string) hierarchy.NodeID {
	n, ok := w.Bed.Tree.Lookup(name)
	if !ok {
		log.Fatalf("category %s missing", name)
	}
	return n
}
