// Command dbnode serves one text database over the repro wire protocol
// (see DESIGN.md): POST /v1/query evaluates a conjunctive query,
// GET /v1/doc/{id} returns one document's terms, GET /v1/info describes
// the node. A metasearch process (or any wire client) can then sample,
// classify, and select the database remotely, exactly as the paper's
// metasearcher treats autonomous web databases.
//
// Server mode — serve a corpus file (one document per line, analyzed
// with the library's default text pipeline):
//
//	dbnode -corpus docs.txt -name medline -category Health
//
// or serve one shard of the synthetic Web testbed (the shard's terms
// and category match what metasearch -remote expects when both use the
// same -scale and -seed):
//
//	dbnode -list -scale small -seed 1        # show available shard names
//	dbnode -testbed Web-Heart-0 -scale small -seed 1
//
// The default -listen 127.0.0.1:0 picks an ephemeral port; the chosen
// address is logged as "serving <name> (<n> docs) on http://host:port".
// The same listener also exposes /metrics and /debug/pprof for
// operations, plus GET /v1/health (200 ok while serving, 503 once
// draining). -max-inflight bounds concurrent protocol
// requests — excess load is shed with 429 + Retry-After instead of
// queueing — and SIGINT/SIGTERM triggers a graceful drain: health goes
// 503, in-flight requests finish (up to -drain-timeout), then the
// process exits.
//
// Client mode — poke a running node:
//
//	dbnode -node 127.0.0.1:8391 -info
//	dbnode -node 127.0.0.1:8391 -query "blood pressure treatment"
//	dbnode -node 127.0.0.1:8391 -query "heartu31u3" -raw
//
// -query analyzes the text with the default pipeline before sending;
// -raw sends whitespace-split words verbatim (for synthetic-vocabulary
// testbed nodes). Each request is a single attempt: a failure is
// reported as it is, not retried.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/textproc"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dbnode: ")
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to serve on (port 0 picks an ephemeral port)")
		maxInfl  = flag.Int("max-inflight", 0, "admission gate: shed protocol requests with 429 + Retry-After past this many in flight (0 = unlimited)")
		drainFor = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline: how long to wait for in-flight requests after SIGINT/SIGTERM")
		corpus   = flag.String("corpus", "", "serve this corpus file (one document per line)")
		name     = flag.String("name", "", "database name (default: corpus file base name / testbed shard name)")
		category = flag.String("category", "", "topic category to advertise in /v1/info")
		testbed  = flag.String("testbed", "", "serve this synthetic Web testbed shard (see -list)")
		scale    = flag.String("scale", "small", "testbed scale: small | default")
		seed     = flag.Int64("seed", 1, "testbed seed (must match the metasearcher's)")
		list     = flag.Bool("list", false, "list the testbed's shard names and exit")
		node     = flag.String("node", "", "client mode: address of a running dbnode")
		query    = flag.String("query", "", "client mode: evaluate this query at -node")
		info     = flag.Bool("info", false, "client mode: print the -node description")
		raw      = flag.Bool("raw", false, "client mode: send -query words verbatim instead of analyzing them")
	)
	flag.Parse()

	if *node != "" {
		runClient(*node, *query, *info, *raw)
		return
	}
	if *list {
		listShards(*scale, *seed)
		return
	}

	db, cat, err := buildBackend(*corpus, *name, *category, *testbed, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	// Every serve traces into a bounded ring so the cluster collector
	// can join this node's wire.serve spans to the callers' traces.
	ring := telemetry.NewRingCapture(0)
	mux := http.NewServeMux()
	srvNode := wire.NewNode(db, wire.ServerOptions{
		Category:    cat,
		MaxInflight: *maxInfl,
		Metrics:     reg,
		Tracer:      telemetry.NewTracer(ring),
	})
	mux.Handle("/v1/", srvNode)
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	// Registered after Listen so the export can self-report the bound
	// address; the server has not started serving yet.
	mux.Handle("/debug/export/spans", telemetry.ExportSpansHandler(
		telemetry.Identity{Instance: ln.Addr().String(), Role: "dbnode"}, ring))
	log.Printf("serving %s (%d docs) on http://%s", db.Name(), db.NumDocs(), ln.Addr())

	// Graceful shutdown: on SIGINT/SIGTERM, fail /v1/health first (so
	// probes and breakers steer new traffic away), then drain in-flight
	// requests under the -drain-timeout deadline before the listener
	// closes.
	if err := wire.ServeUntilSignal(&http.Server{Handler: mux}, ln, srvNode.Gate, *drainFor); err != nil {
		log.Fatal(err)
	}
}

// buildBackend assembles the database to serve from either a corpus
// file or a synthetic testbed shard.
func buildBackend(corpus, name, category, testbed, scale string, seed int64) (*repro.LocalDatabase, string, error) {
	switch {
	case corpus != "" && testbed != "":
		return nil, "", fmt.Errorf("-corpus and -testbed are mutually exclusive")
	case corpus != "":
		db, err := loadCorpus(corpus, name)
		return db, category, err
	case testbed != "":
		return buildShard(testbed, name, category, scale, seed)
	default:
		return nil, "", fmt.Errorf("nothing to serve: pass -corpus <file> or -testbed <shard> (or -list)")
	}
}

// loadCorpus indexes a one-document-per-line text file under the
// library's default analyzer (stopword removal + stemming), the same
// pipeline a default-configured metasearcher applies to queries.
func loadCorpus(path, name string) (*repro.LocalDatabase, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs [][]string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		docs = append(docs, analyze(line))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("corpus %s holds no documents", path)
	}
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return repro.NewLocalDatabaseFromTerms(name, docs), nil
}

// buildShard regenerates the synthetic Web testbed (deterministic in
// scale and seed) and serves the named database, with the sanitized
// term space and directory category cmd/metasearch uses.
func buildShard(shard, name, category, scale string, seed int64) (*repro.LocalDatabase, string, error) {
	w, err := buildWorld(scale, seed)
	if err != nil {
		return nil, "", err
	}
	for _, db := range w.Bed.Databases {
		if db.Name != shard {
			continue
		}
		docs := make([][]string, db.Index.NumDocs())
		for id := range docs {
			docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
		}
		if name == "" {
			name = db.Name
		}
		if category == "" {
			category = w.Bed.Tree.Node(db.Category).Name
		}
		return repro.NewLocalDatabaseFromTerms(name, docs), category, nil
	}
	return nil, "", fmt.Errorf("no testbed database named %q (try -list)", shard)
}

func buildWorld(scale string, seed int64) (*experiments.World, error) {
	sc := experiments.TestScale()
	if scale == "default" {
		sc = experiments.DefaultScale()
	}
	sc.Seed = seed
	return experiments.BuildWorld(experiments.Web, sc)
}

func listShards(scale string, seed int64) {
	w, err := buildWorld(scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	for _, db := range w.Bed.Databases {
		fmt.Printf("%-34s %6d docs  %s\n",
			db.Name, db.Index.NumDocs(), w.Bed.Tree.Node(db.Category).Name)
	}
}

// analyze applies the library's default text pipeline (what a
// default-configured Metasearcher does to raw text).
func analyze(text string) []string {
	return textproc.Analyze(text, textproc.Options{
		RemoveStopwords: true,
		Stem:            true,
		MinLength:       2,
	})
}

// runClient executes one client-mode operation against a node.
func runClient(addr, query string, info, raw bool) {
	c := wire.NewClient(addr, wire.ClientOptions{})
	ctx := context.Background()
	if info || query == "" {
		desc, err := c.Info(ctx, wire.Attempt{Seq: wire.NextSeq()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("name: %s\nprotocol: %d\ndocs: %d\ncategory: %s\n",
			desc.Name, desc.Protocol, desc.NumDocs, desc.Category)
		if query == "" {
			return
		}
	}
	terms := strings.Fields(query)
	if !raw {
		terms = analyze(query)
	}
	if len(terms) == 0 {
		log.Fatalf("query %q has no indexable terms", query)
	}
	matches, ids, err := c.Query(ctx, wire.Attempt{Seq: wire.NextSeq()}, terms, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query %v: %d matches\n", terms, matches)
	for rank, id := range ids {
		doc, err := c.Doc(ctx, wire.Attempt{Seq: wire.NextSeq()}, id)
		if err != nil {
			log.Fatal(err)
		}
		preview := strings.Join(doc, " ")
		if len(preview) > 72 {
			preview = preview[:72] + "..."
		}
		fmt.Printf("%3d. doc %-6d %s\n", rank+1, id, preview)
	}
}
