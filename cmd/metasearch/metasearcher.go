package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"log/slog"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/clock"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/refresh"
	"repro/internal/replica"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

// buildWorld generates the synthetic Web testbed of -scale and -seed. A
// variable so the flag-set tests can see which modes build a world.
var buildWorld = func(f *flags) (*experiments.World, error) {
	sc := experiments.TestScale()
	if f.scale == "default" {
		sc = experiments.DefaultScale()
	}
	sc.Seed = f.seed
	log.Print("building Web testbed...")
	w, err := experiments.BuildWorld(experiments.Web, sc)
	if err == nil {
		log.Printf("%d databases, %d documents", len(w.Bed.Databases), w.Bed.TotalDocs())
	}
	return w, err
}

// local is what the query, serve and shard modes share: the testbed
// world and a Metasearcher configured from the mode's flags.
type local struct {
	w          *experiments.World
	m          *repro.Metasearcher
	ring       *telemetry.RingCapture // always on, for /debug/export/spans
	logger     *slog.Logger           // nil without -v
	audit      *os.File               // nil without -audit
	stopProbes func()                 // set by summaries with -probe-interval
}

// close stops the health probes and releases the -audit file.
func (l *local) close() {
	l.stopProbes()
	l.audit.Close() // a nil *os.File only reports ErrInvalid
}

func newLocal(f *flags) (*local, error) {
	w, err := buildWorld(f)
	if err != nil {
		return nil, err
	}
	l := &local{w: w, ring: telemetry.NewRingCapture(0), stopProbes: func() {}}
	opts := repro.Options{
		SampleSize:  w.Scale.SampleTarget,
		Scorer:      f.scorer,
		SeedLexicon: experiments.SanitizeAll(w.Lexicon),
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
		// Tracing is always on into a bounded ring, so the cluster
		// collector can assemble this process's recent spans.
		Observer: l.ring,
	}
	if f.verbose {
		l.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		opts.Logger = l.logger
	}
	if f.auditFile != "" {
		if l.audit, err = os.OpenFile(f.auditFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, fmt.Errorf("audit log: %w", err)
		}
		opts.AuditLog = l.audit
	}
	l.m = repro.New(opts)
	return l, nil
}

// remoteOptions is how this process's wire clients are wired: drawing
// retries from its one budget.
func (l *local) remoteOptions() replica.ClientOptions {
	return replica.ClientOptions{Budget: l.m.RetryBudget()}
}

// addDatabases registers the testbed: every database in-process under
// its directory category (the paper's "existing classification" case,
// so no probe training is needed), or — with -remote — the dbnode
// servers at the given addresses, each under the category it
// advertises. A dbnode serving a shard of the same testbed (same -scale
// and -seed) yields the same terms, so the pipeline produces identical
// summaries and rankings either way.
func (l *local) addDatabases(remote string) error {
	if remote == "" {
		for _, db := range l.w.Bed.Databases {
			docs := make([][]string, db.Index.NumDocs())
			for id := range docs {
				docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
			}
			cat := l.w.Bed.Tree.Node(db.Category).Name
			if err := l.m.AddDatabase(repro.NewLocalDatabaseFromTerms(db.Name, docs), cat); err != nil {
				return err
			}
		}
		return nil
	}
	for _, addr := range strings.Split(remote, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		rdb, err := replica.Dial(context.Background(), []string{addr}, replica.Options{
			Metrics: l.m.Metrics(),
			Client:  l.remoteOptions(),
		})
		if err != nil {
			return err
		}
		log.Printf("connected to %s: %s (%d docs, category %q)",
			addr, rdb.Name(), rdb.NumDocs(), rdb.Category())
		if err := l.m.AddDatabase(rdb, rdb.Category()); err != nil {
			return err
		}
	}
	return nil
}

// summaries gives the registered databases their summaries — from -load
// or by sampling — then honours -save and -probe-interval.
func (l *local) summaries(f *flags) (err error) {
	if f.loadFile != "" {
		log.Printf("loading summaries from %s...", f.loadFile)
		err = l.m.LoadFile(f.loadFile)
	} else {
		log.Print("sampling databases and building shrunk summaries (QBS + frequency estimation)...")
		err = l.m.BuildSummaries()
	}
	if err != nil {
		return err
	}
	if f.saveFile != "" {
		if err := l.m.SaveFile(f.saveFile); err != nil {
			return err
		}
		log.Printf("summaries saved to %s", f.saveFile)
	}
	l.stopProbes = clock.Every(nil, f.probeEvery, l.m.Probe)
	return nil
}

// debug is the debug surface of a process that owns a metasearcher,
// stamped with the identity its span and audit exports carry.
func (l *local) debug(id telemetry.Identity) debugBundle {
	return debugBundle{reg: l.m.Metrics(), audit: l.m.Audit(), breakers: l.m.Breakers(), identity: id, ring: l.ring}
}

// printExampleWords shows a few topical words the user (or a smoke
// test) can query with.
func (l *local) printExampleWords() {
	n, ok := l.w.Bed.Tree.Lookup("Heart")
	if !ok {
		return
	}
	if v := l.w.Bed.Gen.CategoryVocab(n); v != nil {
		fmt.Printf("example query words: %s %s %s (Heart topic)\n",
			experiments.Sanitize(v.Word(3)), experiments.Sanitize(v.Word(20)), experiments.Sanitize(v.Word(50)))
	}
}

// runQuery is the interactive mode: build, then answer the command
// line's query or stdin's, printing the selected databases and the
// merged document ranking.
func runQuery(f *flags, args []string) error {
	l, err := newLocal(f)
	if err != nil {
		return err
	}
	defer l.close()

	if f.listen != "" {
		id := telemetry.Identity{Instance: f.listen, Role: "metasearch"}
		defer listenDebug(f.listen, l.debug(id)).Close()
	}
	if err := l.addDatabases(f.remote); err != nil {
		return err
	}
	if err := l.summaries(f); err != nil {
		return err
	}

	if len(args) > 0 {
		l.answer(f, strings.Join(args, " "))
		return nil
	}
	l.printExampleWords()
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for scanner.Scan() {
		l.answer(f, scanner.Text())
		fmt.Print("> ")
	}
	return scanner.Err()
}

// answer prints one query's ranked databases (* = shrinkage applied),
// its top merged documents and, with -explain, its audit record.
func (l *local) answer(f *flags, query string) {
	if strings.TrimSpace(query) == "" {
		return
	}
	sels, err := l.m.Select(query, f.k)
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
			mark = "*"
		}
		info, _ := l.m.Info(s.Database)
		fmt.Printf("  %2d.%s %-34s score %-12.4g %s\n", i+1, mark, s.Database, s.Score, info.Category)
	}
	var results []repro.Result
	if resp, err := l.m.Search(context.Background(), repro.SearchRequest{Query: query, MaxDBs: f.k, PerDB: f.perDB}); err != nil {
		fmt.Printf("  search: %v\n", err)
	} else {
		results = resp.Results
	}
	if len(results) > 8 {
		results = results[:8]
	}
	for _, res := range results {
		fmt.Printf("     doc %s/%d  %.4f\n", res.Database, res.DocID, res.Score)
	}
	if f.explain {
		l.m.Audit().Last().Format(os.Stdout)
	}
}

// runServe is the standalone query service.
func runServe(f *flags, _ []string) error {
	l, err := newLocal(f)
	if err != nil {
		return err
	}
	defer l.close()
	if err := l.addDatabases(f.remote); err != nil {
		return err
	}
	if err := l.summaries(f); err != nil {
		return err
	}

	dbg := l.debug(telemetry.Identity{Instance: f.serveAddr, Role: "metasearch"})
	// Background summary refresh: periodically re-probe every live
	// database and rebuild summaries that have drifted past the
	// threshold, hot-swapping them under traffic. Only this mode has the
	// flags: a shard rebuilding on its own would fork the collection-wide
	// statistics the cluster's bit-identical merge rests on.
	if f.refreshEvery > 0 {
		refresher := refresh.NewManager(l.m, refresh.Options{
			Threshold:  f.driftThresh,
			SampleDocs: f.refreshDocs,
			Metrics:    l.m.Metrics(),
			Logger:     l.logger,
		})
		defer clock.Every(nil, f.refreshEvery, func(ctx context.Context) { refresher.RunOnce(ctx) })()
		log.Printf("summary refresh every %v (JS drift threshold %.3g, %d-doc probes)",
			f.refreshEvery, f.driftThresh, f.refreshDocs)
		dbg.refresh = refresher.Handler()
	}
	l.printExampleWords()
	return serve(l.m.Search, f, gatewayOptions(f, l.m.Metrics()), dbg)
}

// runShard serves one topology shard: the process loads the full
// summary store — selection is a function of collection-wide
// statistics — and then holds live handles for its consistent-hash
// slice of the databases only (each a replica set with per-replica
// breakers and failover). Start-up is the first topology swap: the same
// apply hook every later snapshot goes through attaches the slice
// lazily, and one synchronous probe sweep checks every replica's
// identity and closes its breaker before the gateway listens.
func runShard(f *flags, _ []string) error {
	l, err := newLocal(f)
	if err != nil {
		return err
	}
	defer l.close()

	watcher, err := shardmap.NewWatcher(f.topologyFile, shardmap.WatcherOptions{Metrics: l.m.Metrics()})
	if err != nil {
		return err
	}
	if err := l.summaries(f); err != nil {
		return err
	}

	// A snapshot this shard cannot apply is not adopted: the watcher
	// keeps the generation the shard really serves.
	apply := func(snap *shardmap.Snapshot) error {
		assigns, err := snap.Topology.ShardAssignments(f.shardID)
		if err != nil {
			return err
		}
		ras := make([]repro.ReplicaAssignment, len(assigns))
		for i, a := range assigns {
			ras[i] = repro.ReplicaAssignment{
				Database: a.Database, Category: a.Category,
				Replicas: a.Replicas, Preferred: a.Preferred,
			}
		}
		rep, err := l.m.ApplyReplicaAssignments(ras, l.remoteOptions())
		if err != nil {
			return err
		}
		log.Printf("topology generation %d applied: attached %d, detached %d, unknown %d, scope_changed %v",
			snap.Generation, len(rep.Attached), len(rep.Detached), len(rep.Unknown), rep.ScopeChanged)
		return nil
	}
	if err := apply(watcher.Snapshot()); err != nil {
		return err
	}
	l.m.Probe(context.Background())
	watcher.OnSwap(apply)
	defer pollTopology(watcher, f)()

	gopts := gatewayOptions(f, l.m.Metrics())
	gopts.ShardID = f.shardID
	gopts.Topology = watcher.Status
	dbg := l.debug(telemetry.Identity{Instance: f.serveAddr, Role: "shard", Shard: f.shardID})
	dbg.topology = watcher.Handler()
	l.printExampleWords()
	return serve(l.m.Search, f, gopts, dbg)
}
