package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/gateway"
	"repro/internal/wire"
)

// Span names: one per layer boundary the decorators sit on.
const (
	spClient     = "client"            // benchmark client → a gateway (http.RoundTripper)
	spGateway    = "gateway"           // gateway.Gateway (http.Handler)
	spSearcher   = "searcher"          // repro.Metasearcher (gateway.Searcher)
	spRouter     = "router"            // router.Router (gateway.Searcher)
	spShardCall  = "router.shard_call" // router → shard gateway (router.Options.Client)
	spDB         = "db"                // fan-out → one remote database (ContextSearchableDatabase)
	spWireClient = "wire.client"       // wire client → dbnode (RemoteDatabaseOptions.Transport)
	spWireServer = "wire.server"       // dbnode (http.Handler)
	spIndexQuery = "index.query"       // dbnode → index (wire.Backend.Query)
	spIndexFetch = "index.fetch"       // dbnode → index (wire.Backend.Fetch)
	spLocalQuery = "local.query"       // in-process database (SearchableDatabase.Query)
	spLocalFetch = "local.fetch"       // in-process database (SearchableDatabase.Fetch)
	spBuild      = "build"             // one BuildSummaries call
)

// The caller's span crosses an HTTP hop in these two request headers.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// stageRecord pairs one searcher span with the stage breakdown the
// program itself reported for that request.
type stageRecord struct {
	wallNs int64
	stages repro.SearchStages
	hit    bool
}

// stageLog collects stageRecords from every traced Metasearcher.
type stageLog struct {
	mu   sync.Mutex
	recs []stageRecord
}

func (l *stageLog) add(r stageRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// tracedSearcher wraps a gateway.Searcher (a Metasearcher or the
// Router). It forwards the streaming method too, so the gateway keeps
// serving /v1/search/stream through it.
type tracedSearcher struct {
	inner gateway.StreamSearcher
	rec   *recorder
	name  string
	// stages, when non-nil, receives each call's reported breakdown.
	stages *stageLog
	// ambient makes this span the parent of context-less calls below it
	// (in-process databases).
	ambient bool
}

func traceSearcher(rec *recorder, name string, inner gateway.StreamSearcher, stages *stageLog, ambient bool) gateway.StreamSearcher {
	if rec == nil {
		return inner
	}
	return &tracedSearcher{inner: inner, rec: rec, name: name, stages: stages, ambient: ambient}
}

func (t *tracedSearcher) SearchExplained(ctx context.Context, query string, maxDBs, perDB int) (*repro.SearchResponse, error) {
	return t.SearchExplainedObserved(ctx, query, maxDBs, perDB, nil)
}

func (t *tracedSearcher) SearchExplainedObserved(ctx context.Context, query string, maxDBs, perDB int, obs repro.SearchEvents) (*repro.SearchResponse, error) {
	call := func(ctx context.Context) (*repro.SearchResponse, error) {
		if obs == nil {
			return t.inner.SearchExplained(ctx, query, maxDBs, perDB)
		}
		return t.inner.SearchExplainedObserved(ctx, query, maxDBs, perDB, obs)
	}
	if !t.rec.enabled() {
		return call(ctx)
	}
	ref, done := t.rec.open(t.name, spanFrom(ctx))
	if t.ambient {
		t.rec.ambient.Store(ref)
	}
	resp, err := call(withSpan(ctx, ref))
	wall := done()
	if t.stages != nil && err == nil {
		t.stages.add(stageRecord{wallNs: wall, stages: resp.Stages, hit: resp.CacheHit})
	}
	return resp, err
}

// tracedDB wraps a remote database handle. It keeps the context-aware
// methods so the fan-out still treats it as a fallible network call.
type tracedDB struct {
	repro.ContextSearchableDatabase
	rec *recorder
}

func traceDB(rec *recorder, inner repro.ContextSearchableDatabase) repro.ContextSearchableDatabase {
	if rec == nil {
		return inner
	}
	return &tracedDB{ContextSearchableDatabase: inner, rec: rec}
}

func (t *tracedDB) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	if !t.rec.enabled() {
		return t.ContextSearchableDatabase.QueryContext(ctx, terms, limit)
	}
	ref, done := t.rec.open(spDB, spanFrom(ctx))
	defer done()
	return t.ContextSearchableDatabase.QueryContext(withSpan(ctx, ref), terms, limit)
}

func (t *tracedDB) FetchContext(ctx context.Context, id int) ([]string, error) {
	if !t.rec.enabled() {
		return t.ContextSearchableDatabase.FetchContext(ctx, id)
	}
	ref, done := t.rec.open(spDB, spanFrom(ctx))
	defer done()
	return t.ContextSearchableDatabase.FetchContext(withSpan(ctx, ref), id)
}

// tracedLocalDB wraps an in-process database. It deliberately does not
// implement ContextSearchableDatabase: the pipeline must keep taking
// its infallible in-process path.
type tracedLocalDB struct {
	inner repro.SearchableDatabase
	rec   *recorder
}

func traceLocalDB(rec *recorder, inner repro.SearchableDatabase) repro.SearchableDatabase {
	if rec == nil {
		return inner
	}
	return &tracedLocalDB{inner: inner, rec: rec}
}

func (t *tracedLocalDB) Name() string { return t.inner.Name() }

func (t *tracedLocalDB) Query(terms []string, limit int) (int, []int) {
	if !t.rec.enabled() {
		return t.inner.Query(terms, limit)
	}
	_, done := t.rec.open(spLocalQuery, t.rec.ambientRef())
	defer done()
	return t.inner.Query(terms, limit)
}

func (t *tracedLocalDB) Fetch(id int) []string {
	if !t.rec.enabled() {
		return t.inner.Fetch(id)
	}
	_, done := t.rec.open(spLocalFetch, t.rec.ambientRef())
	defer done()
	return t.inner.Fetch(id)
}

// nodeTrace ties a dbnode's handler decorator to its backend decorator:
// wire.Backend carries no context, so the handler leaves its span here
// for the backend call it is about to make. A traced request reaches
// each dbnode at most once, so one slot per node suffices.
type nodeTrace struct {
	rec *recorder
	cur atomic.Value // spanRef
}

// tracedBackend wraps what a dbnode serves.
type tracedBackend struct {
	wire.Backend
	node *nodeTrace
}

func (t *tracedBackend) Query(terms []string, limit int) (int, []int) {
	if !t.node.rec.enabled() {
		return t.Backend.Query(terms, limit)
	}
	parent, _ := t.node.cur.Load().(spanRef)
	_, done := t.node.rec.open(spIndexQuery, parent)
	defer done()
	return t.Backend.Query(terms, limit)
}

func (t *tracedBackend) Fetch(id int) []string {
	if !t.node.rec.enabled() {
		return t.Backend.Fetch(id)
	}
	parent, _ := t.node.cur.Load().(spanRef)
	_, done := t.node.rec.open(spIndexFetch, parent)
	defer done()
	return t.Backend.Fetch(id)
}

// traceNode returns the backend and the handler wrapper of one dbnode.
func traceNode(rec *recorder, db wire.Backend) (wire.Backend, func(http.Handler) http.Handler) {
	if rec == nil {
		return db, func(h http.Handler) http.Handler { return h }
	}
	node := &nodeTrace{rec: rec}
	return &tracedBackend{Backend: db, node: node}, func(h http.Handler) http.Handler {
		return &tracedHandler{inner: h, rec: rec, name: spWireServer, node: node}
	}
}

// tracedHandler wraps an http.Handler (a gateway or a dbnode). Its
// parent is whatever span the calling RoundTripper put in the headers.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
	name  string
	node  *nodeTrace // non-nil on a dbnode
}

func traceHandler(rec *recorder, name string, inner http.Handler) http.Handler {
	if rec == nil {
		return inner
	}
	return &tracedHandler{inner: inner, rec: rec, name: name}
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.enabled() {
		t.inner.ServeHTTP(w, r)
		return
	}
	var parent spanRef
	parent.id, _ = strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	parent.req, _ = strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	ref, done := t.rec.open(t.name, parent)
	defer done()
	if t.node != nil {
		t.node.cur.Store(ref)
	}
	t.inner.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref)))
}

// tracedTransport wraps an http.RoundTripper. The span covers the call
// until the reply body is closed, which is when the caller has the
// whole answer.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
	name  string
}

func traceTransport(rec *recorder, name string, inner http.RoundTripper) http.RoundTripper {
	if rec == nil {
		return inner
	}
	return &tracedTransport{inner: inner, rec: rec, name: name}
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.enabled() {
		return t.inner.RoundTrip(req)
	}
	ref, done := t.rec.open(t.name, spanFrom(req.Context()))
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.FormatInt(ref.id, 10))
	req.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &closeNotifier{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type closeNotifier struct {
	io.ReadCloser
	once sync.Once
	done func() int64
}

func (c *closeNotifier) Close() error {
	err := c.ReadCloser.Close()
	c.once.Do(func() { c.done() })
	return err
}
