package repro

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/pool"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// auditTopHits caps how many merged results a QueryRecord retains for
// provenance.
const auditTopHits = 10

// The paper's introduction defines a metasearcher by three steps:
// select the best databases for the query, evaluate the query at each,
// and merge the results into one answer. Select covers step one; Search
// is the full loop.

// Result is one merged document hit — the entry of a reply's ranking,
// of a stream's merge_update frame, and of an audit record's top hits.
type Result = audit.Hit

// SearchRequest is one query to the metasearch loop: the one argument
// of Search on both planes, the in-process Metasearcher and the cluster
// router.
type SearchRequest struct {
	// Query is the raw query text, analyzed before selection.
	Query string
	// MaxDBs is how many databases to select; it must be positive.
	MaxDBs int
	// PerDB is how many documents to take from each selected database;
	// zero or negative means DefaultPerDB.
	PerDB int
	// Events, when non-nil, narrates the search as it progresses (the
	// hook behind /v1/search/stream). Observation never changes the
	// answer: the response is bit-identical to a search without it.
	Events SearchEvents
}

// DefaultPerDB is the per-database result depth of a request that
// names none.
const DefaultPerDB = 10

// Normalize applies the request rule both planes share: MaxDBs ≤ 0 is
// an error, PerDB ≤ 0 means DefaultPerDB.
func (r SearchRequest) Normalize() (SearchRequest, error) {
	if err := checkMaxDBs(r.MaxDBs); err != nil {
		return r, err
	}
	if r.PerDB <= 0 {
		r.PerDB = DefaultPerDB
	}
	return r, nil
}

// checkMaxDBs is the selection depth rule Select and Search share.
func checkMaxDBs(k int) error {
	if k <= 0 {
		return fmt.Errorf("repro: the number of databases to select must be positive, got %d", k)
	}
	return nil
}

// SearchResponse is one answered query with its provenance. Its JSON
// form is the gateway's /v1/search reply and the payload of a stream's
// final frame. Slices are owned by the caller (copied out of any cache
// entry they came from).
type SearchResponse struct {
	// TraceID links the response to this query's distributed trace and
	// audit record ("" when tracing is disabled); the gateway also
	// sends it as the X-Trace-Id header.
	TraceID string `json:"trace_id,omitempty"`
	// Query is the raw query; Terms the analyzed words actually scored;
	// Scorer the base selection algorithm.
	Query  string   `json:"query"`
	Terms  []string `json:"terms,omitempty"`
	Scorer string   `json:"scorer,omitempty"`
	// Selections is the selected database set in rank order.
	Selections []Selection `json:"selections,omitempty"`
	// Results is the merged document ranking.
	Results []Result `json:"results,omitempty"`
	// CacheHit reports the whole answer came from the result cache;
	// SelectionCacheHit that only the selection step was cached (the
	// fan-out ran); Collapsed that this query piggybacked on an
	// identical concurrent query's in-flight work.
	CacheHit          bool `json:"result_hit"`
	SelectionCacheHit bool `json:"selection_hit,omitempty"`
	Collapsed         bool `json:"collapsed,omitempty"`
	// ElapsedSeconds is this request's end-to-end latency; Stages
	// decomposes it by pipeline stage.
	ElapsedSeconds float64      `json:"elapsed_seconds"`
	Stages         SearchStages `json:"stages_seconds"`
}

// SearchStages decomposes one request's latency by pipeline stage, in
// seconds. For a cold request Cache is the residual spent on key
// computation and cache bookkeeping around the real work; for a cache
// hit or a collapsed request the whole latency is Cache time (the other
// stages were paid by the request that fanned out). Each stage is also
// recorded in its search_stage_* latency histogram.
type SearchStages struct {
	// Cache is time spent in cache lookup and bookkeeping.
	Cache float64 `json:"cache"`
	// Selection is the database-selection stage (through the selection
	// cache: a selection-tier hit makes this small but nonzero).
	Selection float64 `json:"selection"`
	// Fanout is the parallel query evaluation across selected databases.
	Fanout float64 `json:"fanout"`
	// Merge is result merging and ranking.
	Merge float64 `json:"merge"`
}

// Search performs the complete metasearch: select up to req.MaxDBs
// databases for the query (Figure 3's adaptive selection under the
// configured scorer), evaluate the query at each selected database
// concurrently, and merge the top req.PerDB documents of each into a
// single ranking. The response carries the provenance: the selection
// set, the analyzed terms, the trace ID, and how the answer was
// produced (cold fan-out, result-cache hit, or collapsed onto a
// concurrent identical query). Cancelling ctx cancels in-flight remote
// queries and stops the fan-out.
//
// A selected database whose query errors (e.g. a replica.Database
// whose every replica is down, after its retries and failovers) is
// skipped — counted in search_db_unavailable_total and noted on the
// trace — rather than failing the whole search, as is a database whose
// circuit breaker is open (counted separately, in
// search_breaker_open_total). A selected database this process holds
// no live handle for is out of scope: another shard's slice, counted
// in search_out_of_scope_total and never queried here. Search errors
// only on an invalid request (see Normalize) or when none of the
// selected databases is reachable and none is out of scope.
//
// The cached fan-out: identical queries (same analyzed terms, MaxDBs,
// PerDB) within the result tier's TTL are answered from memory
// without touching selection or any database, and concurrent identical
// queries collapse onto a single upstream fan-out (singleflight) — each
// still gets its own audit record and trace, flagged CacheHit or
// Collapsed. The fan-out itself queries all selected databases in
// parallel, each under the shared deadline budget; slow nodes are
// hedged and persistently failing nodes are short-circuited by their
// breakers. The merged ranking is deterministic regardless of arrival
// order.
//
// With req.Events set, the events see the selection as soon as it is
// ranked, each node's outcome as the fan-out completes it, and the
// partial merged ranking after each. For a result-cache hit or a query
// collapsed onto a concurrent identical search they see only the
// Selection event (the fan-out they would narrate already ran, or is
// owned by another request) before Search returns.
func (m *Metasearcher) Search(ctx context.Context, req SearchRequest) (*SearchResponse, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	query, maxDBs, perDB, obs := req.Query, req.MaxDBs, req.PerDB, req.Events
	m.met.searchInflight.Add(1)
	defer m.met.searchInflight.Add(-1)
	attrs := []telemetry.Attr{
		telemetry.String("query", query),
		telemetry.Int("max_dbs", maxDBs),
		telemetry.Int("per_db", perDB)}
	var span *telemetry.Span
	// When the request arrived traced from another process (the cluster
	// router propagating through the gateway), parent the search under
	// the remote span so the whole fan-out is one cross-process trace;
	// otherwise this call roots its own trace.
	if remote := telemetry.RemoteFromContext(ctx); remote.Valid() {
		span = m.tracer.SpanWithRemoteParent("search", remote, attrs...)
	} else {
		span = m.tracer.Span("search", attrs...)
	}
	m.met.searchRequests.Inc()
	start := time.Now()
	defer func() {
		m.met.searchLatency.ObserveExemplar(time.Since(start).Seconds(), span.Context().TraceID)
	}()

	// The audit record is assembled as the search progresses and
	// published exactly once, on every exit path — failed queries leave
	// records too (that is when an explanation matters most). Cache hits
	// and collapsed queries leave records too, built from the shared
	// entry's evidence.
	rec := &audit.QueryRecord{
		TraceID: span.Context().TraceID,
		Time:    start,
		Query:   query,
		MaxDBs:  maxDBs,
		PerDB:   perDB,
	}
	finish := func(err error) {
		rec.ElapsedSeconds = time.Since(start).Seconds()
		if err != nil {
			rec.Error = err.Error()
		}
		m.audit.Add(rec)
	}

	var (
		e         *searchEntry
		hit       bool
		collapsed bool
	)
	terms := m.analyze(query)
	if m.resCache != nil && len(terms) > 0 {
		key := resultKey(selectionKey(terms, maxDBs), perDB)
		var v interface{}
		v, hit, collapsed, err = m.resCache.Do(ctx, key, func() (interface{}, error) {
			return m.searchUncached(ctx, span, terms, maxDBs, perDB, obs)
		})
		if v != nil {
			e = v.(*searchEntry)
		}
	} else {
		e, err = m.searchUncached(ctx, span, terms, maxDBs, perDB, obs)
	}
	// A cache hit or collapsed query never ran this caller's fan-out
	// (and so never narrated anything): replay the selection from the
	// shared entry, so a streaming client still gets its selection
	// frame before the final answer.
	if obs != nil && (hit || collapsed) && e != nil && err == nil {
		obs.Selection(append([]Selection(nil), e.selections...), e.terms, e.scorer)
	}

	rec.CacheHit = hit
	rec.Collapsed = collapsed
	if e != nil {
		rec.Terms = e.terms
		rec.Scorer = e.scorer
		rec.Candidates = e.candidates
		rec.Selected = e.selected
		rec.Merged = e.merged
		rec.TopHits = e.topHits
		if !hit && !collapsed {
			// Only the query that actually fanned out owns the node-call
			// evidence; hit/collapsed records point to it via the cache
			// flags instead of double-reporting costs nobody paid twice.
			rec.Nodes = e.nodes
			rec.SelectionCacheHit = e.selCacheHit
		}
	}
	if err != nil {
		span.End(telemetry.String("error", err.Error()))
		finish(err)
		return nil, err
	}
	if hit {
		span.Event("search.cache_hit")
	}
	resp := &SearchResponse{
		TraceID:           rec.TraceID,
		Query:             query,
		Terms:             e.terms,
		Scorer:            e.scorer,
		Selections:        append([]Selection(nil), e.selections...),
		Results:           append([]Result(nil), e.results...),
		CacheHit:          hit,
		SelectionCacheHit: rec.SelectionCacheHit,
		Collapsed:         collapsed,
	}
	cached := 0
	if hit {
		cached = 1
	}
	span.End(
		telemetry.Int("selected", len(e.selections)),
		telemetry.Int("queried", e.queried),
		telemetry.Int("merged", e.merged),
		telemetry.Int("cache_hit", cached))
	finish(nil)
	elapsed := time.Since(start)
	resp.ElapsedSeconds = elapsed.Seconds()
	resp.Stages = m.stageBreakdown(e, hit, collapsed, elapsed)
	return resp, nil
}

// stageBreakdown attributes one request's latency to pipeline stages.
// The request that fanned out owns the selection/fan-out/merge timings
// it measured; a hit or collapsed request paid only cache time. The
// cache stage (this request's residual around the measured stages) is
// recorded here because only the caller knows the end-to-end latency.
func (m *Metasearcher) stageBreakdown(e *searchEntry, hit, collapsed bool, elapsed time.Duration) SearchStages {
	var st SearchStages
	if hit || collapsed || e == nil {
		st.Cache = elapsed.Seconds()
	} else {
		st = e.stages
		if residual := elapsed.Seconds() - (st.Selection + st.Fanout + st.Merge); residual > 0 {
			st.Cache = residual
		}
	}
	m.met.stageCache.Observe(st.Cache)
	return st
}

// searchEntry is one search's cacheable outcome plus the audit evidence
// behind it. Entries are shared between the caller that produced them,
// collapsed waiters, and later cache hits — never mutated after return.
type searchEntry struct {
	terms       []string
	scorer      string
	candidates  []audit.Candidate
	selections  []Selection
	selected    []string
	nodes       []audit.NodeCall
	results     []Result
	merged      int
	queried     int
	topHits     []audit.Hit
	selCacheHit bool
	stages      SearchStages // selection/fan-out/merge timings of the cold path
}

// searchUncached is the cold search path: selection (through the
// selection cache), parallel fan-out, merge. It always returns a
// non-nil entry carrying whatever evidence was gathered before a
// failure, so failed queries still produce explanatory audit records.
// The span stays open — the caller owns its lifecycle. terms are the
// analyzed query; obs, when non-nil, narrates the search as it
// progresses (see SearchEvents).
func (m *Metasearcher) searchUncached(ctx context.Context, span *telemetry.Span, terms []string, maxDBs, perDB int, obs SearchEvents) (*searchEntry, error) {
	e := &searchEntry{}
	tSel := time.Now()
	sels, explain, selHit, err := m.selectCached(ctx, span, terms, maxDBs)
	e.stages.Selection = time.Since(tSel).Seconds()
	m.met.stageSelection.Observe(e.stages.Selection)
	e.selCacheHit = selHit
	if explain != nil {
		e.terms = explain.terms
		e.scorer = explain.scorer
		e.candidates = explain.candidates
	}
	if err != nil {
		return e, err
	}
	e.selections = sels
	for _, s := range sels {
		e.selected = append(e.selected, s.Database)
	}
	if obs != nil {
		obs.Selection(append([]Selection(nil), sels...), e.terms, e.scorer)
	}
	if len(sels) == 0 {
		return e, nil
	}

	// The live handles as of now: a topology swap publishes a new store,
	// and this fan-out finishes on the handles it loaded here.
	st := m.state.Load()

	// Normalize selection scores to [0, 1] so the discounting is
	// comparable across scorers.
	maxScore := sels[0].Score
	for _, s := range sels {
		if s.Score > maxScore {
			maxScore = s.Score
		}
	}
	if maxScore <= 0 {
		maxScore = 1
	}

	// Fan out: all selected databases in parallel, each outcome written
	// into its own slot so the merge below is independent of arrival
	// order. The deadline budget bounds the whole fan-out — one hung
	// node costs at most the budget, not the sum of per-node timeouts.
	fanCtx := ctx
	if budget := m.opts.Resilience.DeadlineBudget; budget > 0 {
		var cancel context.CancelFunc
		fanCtx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	hedgeAfter := m.hedgeThreshold()
	outcomes := make([]nodeOutcome, len(sels))
	em := newSearchEmitter(obs, sels, maxScore)
	tFan := time.Now()
	pool.ForEach(len(sels), len(sels), m.reg, func(i int) error {
		name := sels[i].Database
		// Every database is ranked (selection needs the collection-wide
		// statistics), but only those this process holds a live handle
		// for are queried: on a cluster shard the rest are the other
		// shards' slices, merged back together by the router.
		if r, _ := st.lookup(name); r != nil && r.db != nil {
			outcomes[i] = m.searchNode(fanCtx, span, r.db, name, terms, perDB, hedgeAfter)
		} else {
			m.met.outOfScope.Inc()
			span.Event("search.out_of_scope", telemetry.String("db", name))
			outcomes[i].call.OutOfScope = true
		}
		outcomes[i].call.Database = name
		em.record(i, outcomes[i])
		return nil
	})
	e.stages.Fanout = time.Since(tFan).Seconds()
	m.met.stageFanout.Observe(e.stages.Fanout)
	// The fan-out absorbs node failures, but the caller giving up is
	// not a node failure: surface their cancellation as the search's
	// error (the budget expiring is fanCtx's deadline, not ctx's).
	if cerr := ctx.Err(); cerr != nil {
		for _, o := range outcomes {
			e.nodes = append(e.nodes, o.call)
		}
		return e, cerr
	}

	tMerge := time.Now()
	var queried, skipped, unavailable, open int
	for _, o := range outcomes {
		e.nodes = append(e.nodes, o.call)
		switch {
		case o.ok:
			queried++
		case o.call.OutOfScope:
			skipped++
		case o.call.BreakerOpen:
			open++
		case o.call.Unavailable:
			unavailable++
		}
	}
	if queried == 0 {
		// On a shard whose slice holds none of the selected databases an
		// empty answer is correct, not an error: the router gets the
		// results from the shards that own them.
		if skipped == 0 {
			return e, fmt.Errorf("repro: none of the %d selected databases answered: %d unavailable, %d short-circuited",
				len(sels), unavailable, open)
		}
		e.stages.Merge = time.Since(tMerge).Seconds()
		return e, nil
	}
	out := scoreOutcomes(sels, maxScore, outcomes)
	m.met.resultsMerged.Add(int64(len(out)))
	e.results = out
	e.merged = len(out)
	e.queried = queried
	n := min(len(out), auditTopHits)
	e.topHits = out[:n:n] // shares the entry's ranking; capped so an append cannot reach into it
	e.stages.Merge = time.Since(tMerge).Seconds()
	m.met.stageMerge.Observe(e.stages.Merge)
	return e, nil
}

// nodeOutcome is one selected database's result slot in the fan-out.
type nodeOutcome struct {
	call audit.NodeCall
	ids  []int
	ok   bool
}

// MergeResults is the merge step's one rule, applied in place: hits are
// ordered by score descending, then database name, then document id —
// so arrival order never shows through — and repeats of a (database,
// doc id) pair are dropped, first one kept. Repeats exist exactly when
// several cluster shards own a replicated database and each returned
// its documents — with identical scores, by the shrinkage invariant on
// Load, so the order puts them next to each other and one pass over
// neighbours finds them. The final merge, every streamed partial
// merge, and the cluster router's merge of shard rankings all go
// through here, which is why they agree bit for bit. It also reports
// how many repeats it dropped.
func MergeResults(hits []Result) (merged []Result, dropped int) {
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		if hits[a].Database != hits[b].Database {
			return hits[a].Database < hits[b].Database
		}
		return hits[a].DocID < hits[b].DocID
	})
	merged = hits[:0]
	for _, h := range hits {
		if n := len(merged); n > 0 && merged[n-1] == h {
			dropped++
			continue
		}
		merged = append(merged, h)
	}
	return merged, dropped
}

// scoreOutcomes merges the completed fan-out slots into the ranked
// result list: each document scored by its database's normalized
// selection score discounted by rank, then put in the merge order.
// Slots not yet completed (ok=false) contribute nothing, so scoring a
// partially-filled outcome array yields the completed prefix of the
// eventual answer — which is what streaming merge_update frames carry.
func scoreOutcomes(sels []Selection, maxScore float64, outcomes []nodeOutcome) []Result {
	var out []Result
	for i, o := range outcomes {
		if !o.ok {
			continue
		}
		for rank, id := range o.ids {
			out = append(out, Result{
				Database: sels[i].Database,
				DocID:    id,
				Score:    (sels[i].Score / maxScore) / float64(rank+1),
			})
		}
	}
	out, _ = MergeResults(out)
	return out
}

// searchNode evaluates the query at one selected database through
// resilience.Do — breaker admission, the call, hedged once if it
// outlives hedgeAfter, and the breaker verdict — and audits what it all
// cost (the caller names the database on the record). It never fails
// the search — every path returns an outcome. ctx is the fan-out's
// context: the search's own, bounded by the deadline budget.
func (m *Metasearcher) searchNode(ctx context.Context, span *telemetry.Span, db SearchableDatabase, name string, terms []string, perDB int, hedgeAfter time.Duration) nodeOutcome {
	var call audit.NodeCall
	unreachable := func(dbSpan *telemetry.Span, err error) nodeOutcome {
		call.Error = err.Error()
		call.Unavailable = true
		m.met.dbUnavailable.Inc()
		dbSpan.End(telemetry.String("error", err.Error()))
		span.Event("search.db_unavailable",
			telemetry.String("db", name), telemetry.String("error", err.Error()))
		m.logWarn("search: selected database unreachable, skipping",
			"db", name, "error", err)
		return nodeOutcome{call: call}
	}

	cdb, remote := db.(ContextSearchableDatabase)
	if !remote {
		hedgeAfter = 0 // in-process: infallible, nothing to hedge
	}
	var (
		admitted sync.Once // the first attempt to start opens the node's span
		dbSpan   *telemetry.Span
		dbStart  time.Time      // zero unless the breaker admitted the call
		ids      [2][]int       // per attempt (primary, hedge): a loser may outlive Do
		stats    wire.CallStats // both attempts' transport cost
	)
	policy := resilience.Policy{HedgeAfter: hedgeAfter, Clock: m.clock, Breakers: m.breakers, Budget: m.budget}
	out, err := resilience.Do(ctx, policy, []string{name}, func(actx context.Context, _, attempt int) error {
		admitted.Do(func() {
			// Post-Allow state: an admitted call on a cooled-down breaker
			// is the half-open trial, and the audit should say so.
			call.BreakerState = m.breakers.Get(name).State().String()
			dbSpan = span.Child("search.db", telemetry.String("db", name))
			dbStart = time.Now()
		})
		if !remote {
			_, ids[0] = db.Query(terms, perDB)
			return nil
		}
		actx = telemetry.ContextWithSpan(actx, dbSpan)
		actx = wire.ContextWithCallStats(actx, &stats)
		var err error
		_, ids[attempt], err = cdb.QueryContext(actx, terms, perDB)
		return err
	})
	if dbStart.IsZero() {
		if !errors.Is(err, resilience.ErrShortCircuited) {
			// The fan-out was over before it reached this node (an expired
			// request, a client already gone): the node is not touched, and
			// that is no verdict on it either way.
			return unreachable(nil, err)
		}
		// Short-circuited: the node is known-bad and was not touched.
		// Audited as BreakerOpen, distinct from Unavailable (which means
		// the node was actually tried).
		m.met.breakerOpen.Inc()
		span.Event("search.breaker_open", telemetry.String("db", name))
		call.BreakerState = m.breakers.Get(name).State().String()
		call.BreakerOpen = true
		return nodeOutcome{call: call}
	}

	latency := time.Since(dbStart)
	m.met.dbLatency.Observe(latency.Seconds())
	call.LatencySeconds = latency.Seconds()
	if remote {
		m.nodeLatency.observe(latency)
		if out.Hedged {
			m.met.hedges.Inc()
			call.Hedged = true
			if out.Attempt == 1 && err == nil {
				m.met.hedgeWins.Inc()
				call.HedgeWon = true
			}
			span.Event("search.hedged", telemetry.String("db", name), telemetry.Int("winner", out.Attempt))
		}
		call.Attempts, call.Retries, call.Sheds = stats.Attempts(), stats.Retries(), stats.Sheds()
		if call.Sheds > 0 {
			m.met.sheds.Add(call.Sheds)
		}
	}
	if err != nil {
		return unreachable(dbSpan, err)
	}
	call.Results = len(ids[out.Attempt])
	dbSpan.End(telemetry.Int("results", call.Results))
	return nodeOutcome{call: call, ids: ids[out.Attempt], ok: true}
}

// latencyRingSize is how many recent node calls the auto-tuned hedge
// threshold looks back over: enough for a stable p95, bounded memory.
const latencyRingSize = 1024

// latencyRing holds the latencies of the fan-out's most recent remote
// node calls — exactly the calls searchNode hedges, measured where they
// are raced — so the threshold that hedges queries is tuned by query
// calls alone (not a running build's Fetch traffic) and needs no
// registry shared with whoever dialled the database handles.
type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyRingSize]time.Duration
	seen int // calls observed so far; the next one overwrites buf[seen%size]
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.seen%latencyRingSize] = d
	r.seen++
	r.mu.Unlock()
}

// p95 is the nearest-rank 95th percentile of the held latencies: the
// smallest one with at least 95 % of them at or below it (0 when empty).
func (r *latencyRing) p95() time.Duration {
	r.mu.Lock()
	sorted := slices.Clone(r.buf[:min(r.seen, latencyRingSize)])
	r.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	slices.Sort(sorted)
	return sorted[(95*len(sorted)+99)/100-1]
}

// hedgeThreshold resolves the hedge-latency threshold for one search:
// the configured HedgeAfter, or (when 0) the p95 of the fan-out's recent
// remote node calls floored at hedgeFloor. Negative disables hedging.
func (m *Metasearcher) hedgeThreshold() time.Duration {
	if after := m.opts.Resilience.HedgeAfter; after != 0 {
		return max(after, 0)
	}
	return max(m.nodeLatency.p95(), hedgeFloor)
}
