package main

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// worldSeed fixes the synthetic testbed. -seed does not reach it: two
// worlds differ by tens of percent in documents and in what a summary
// build costs, which would drown every bound below. The seed drives
// what a benchmark's seed should — which queries arrive, in what order.
const worldSeed = 1

// benchScale is the world every workload shares: 118 databases, about
// 35 k documents, 300 distinct 2–5-word queries — the many-database,
// short-query Web setting.
func benchScale() experiments.Scale {
	sc := experiments.TestScale()
	sc.WebPerLeaf, sc.WebExtra = 2, 10
	sc.WebMinSize, sc.WebMaxSize = 100, 600
	sc.SampleTarget = 100
	sc.GlobalVocab, sc.CategoryVocab = 3000, 1500
	sc.Queries = 300
	sc.Seed = worldSeed
	return sc
}

// benchDB is one database in the sanitized term space cmd/metasearch
// and cmd/dbnode use.
type benchDB struct {
	name, category string
	docs           [][]string
}

// world is the generated input: databases, the query pool, and the
// relevance judgments rk5 is scored against.
type world struct {
	exp     *experiments.World
	dbs     []benchDB
	dbIndex map[string]int
	lexicon []string
	queries []string // the whole pool, pool order
	hot     []string // the head of the pool: what the warm workloads draw from
}

func buildWorld(sc experiments.Scale, hot int) (*world, error) {
	w, err := experiments.BuildWorld(experiments.Web, sc)
	if err != nil {
		return nil, err
	}
	wd := &world{exp: w, dbIndex: make(map[string]int), lexicon: experiments.SanitizeAll(w.Lexicon)}
	for i, db := range w.Bed.Databases {
		docs := make([][]string, db.Index.NumDocs())
		for id := range docs {
			docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
		}
		wd.dbs = append(wd.dbs, benchDB{name: db.Name, category: w.Bed.Tree.Node(db.Category).Name, docs: docs})
		wd.dbIndex[db.Name] = i
	}
	for _, q := range w.Bed.Queries {
		wd.queries = append(wd.queries, strings.Join(experiments.SanitizeAll(q.Terms), " "))
	}
	if hot > len(wd.queries) {
		hot = len(wd.queries)
	}
	wd.hot = wd.queries[:hot]
	return wd, nil
}

// options is the production configuration of cmd/metasearch: synthetic
// vocabulary kept verbatim, GOMAXPROCS sampling workers, spans into a
// bounded ring, the default audit ring. Only the cache tiers vary by
// workload.
func (wd *world) options(cache repro.CacheConfig) repro.Options {
	return repro.Options{
		SampleSize:    wd.exp.Scale.SampleTarget,
		SeedLexicon:   wd.lexicon,
		Seed:          1,
		Parallelism:   runtime.GOMAXPROCS(0),
		KeepStopwords: true,
		NoStemming:    true,
		Observer:      telemetry.NewRingCapture(0),
		Cache:         cache,
	}
}

// indexAll builds one in-process database per testbed database.
func (wd *world) indexAll() []*repro.LocalDatabase {
	out := make([]*repro.LocalDatabase, len(wd.dbs))
	for i, d := range wd.dbs {
		out[i] = repro.NewLocalDatabaseFromTerms(d.name, d.docs)
	}
	return out
}

// register adds the databases to m under their directory categories
// (the paper's "existing classification" case).
func (wd *world) register(m *repro.Metasearcher, rec *recorder, locals []*repro.LocalDatabase) error {
	for i, d := range wd.dbs {
		if err := m.AddDatabase(traceLocalDB(rec, locals[i]), d.category); err != nil {
			return err
		}
	}
	return nil
}

// rk is R_k of one answer's selection against the relevance judgments.
func (wd *world) rk(queryIdx int, sels []repro.Selection, k int) float64 {
	ranked := make([]int, 0, len(sels))
	for _, s := range sels {
		if i, ok := wd.dbIndex[s.Database]; ok {
			ranked = append(ranked, i)
		}
	}
	return metrics.Rk(wd.exp.Relevant[queryIdx], ranked, k)
}

// listener is one loopback HTTP server the benchmark started.
type listener struct {
	addr string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on an ephemeral loopback port.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return l, nil
}

// stop closes the listener and its connections and waits for Serve to
// return.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// newTransport is a keep-alive transport with the wire client's own
// pool sizes, owned by the benchmark so it can be closed between
// set-ups.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	}
}
