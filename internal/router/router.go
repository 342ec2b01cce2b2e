// Package router is the scatter-gather front of a sharded metasearcher
// cluster. A Router owns no summaries and makes no selection decisions:
// it fans each query out to every shard's gateway (each shard is a full
// metasearcher process that loaded the complete summary store but holds
// live handles for its topology slice only), collects the
// per-shard rankings, and merges them deterministically into exactly
// the answer a single-process metasearcher would have produced.
//
// The merge identity rests on the shrinkage invariant documented on
// repro.Load: every shard computes selection scores from the
// identical collection-wide statistics, so the per-document merged
// scores (selection score normalized over the selected set, discounted
// by in-database rank) are bit-identical across shards. The router then
// only has to concatenate the shard rankings and hand them to
// repro.MergeResults — the very function every shard's own merge ends
// in — which orders them and drops duplicate (database, doc id) pairs;
// duplicates exist precisely when the topology's replication places one
// database on several shards.
//
// Shards are peers of the wire protocol's operational conventions: each
// has a circuit breaker (keyed by shard ID, on the router's
// resilience.Set), a shed (429) reply is backpressure rather than
// failure, and scheduled Probe sweeps re-admit recovered shards. A query
// succeeds if at least one shard answers; shards the breaker holds back
// or that fail mid-query cost coverage (their databases go unranked),
// never availability.
//
// Router.Search is the search function the standard gateway serves
// (gateway.For(rt.Search, opts)), so the cluster answers under the same
// /v1/search API a single process exposes.
package router

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/evtstream"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configures a Router.
type Options struct {
	// Client issues the shard HTTP calls (default: a client with
	// Timeout as its overall bound; the per-request context governs
	// cancellation either way).
	Client *http.Client
	// Timeout bounds each shard call when the incoming request carries
	// no deadline of its own (default 10s; zero keeps the default, use
	// a negative value for unbounded).
	Timeout time.Duration
	// Breakers tracks one circuit breaker per shard, keyed by shard ID.
	// Nil builds a private set with default BreakerOptions.
	Breakers *resilience.Set
	// Metrics receives the router_* series (may be nil).
	Metrics *telemetry.Registry
	// Tracer traces the scatter-gather (may be nil). Shard calls carry
	// the trace context in the standard propagation headers.
	Tracer *telemetry.Tracer
	// Budget pays for the one same-shard retry of a transient failure
	// and is paid by every successful shard call (see resilience.Budget).
	// Nil builds a private budget, as a nil Breakers builds a private
	// set: the retry is always budgeted, never unlimited and never off.
	Budget *resilience.Budget
}

// Router fans queries out to every shard and merges the rankings.
// Serve its Search over HTTP with gateway.For.
//
// The fan-out targets live in an immutable shard slice swapped
// atomically by ApplyTopology: every query loads it once at entry, so
// queries in flight finish on the ring they started on while new
// queries route on the new one.
type Router struct {
	ring     atomic.Pointer[[]shardmap.Shard] // sorted by ID
	client   *http.Client
	timeout  time.Duration
	breakers *resilience.Set
	tracer   *telemetry.Tracer
	budget   *resilience.Budget
	clock    clock.Clock // times the retry's backoff: real time, a fake in tests

	requests     *telemetry.Counter
	errors       *telemetry.Counter
	shardCalls   *telemetry.Counter
	shardErrors  *telemetry.Counter
	shardSkips   *telemetry.Counter
	shardRetries *telemetry.Counter
	dedupDrops   *telemetry.Counter
	fanoutLat    *telemetry.Histogram
	mergeLat     *telemetry.Histogram

	probeMu   sync.Mutex
	lastProbe map[string]probeResult // shard ID → latest background probe
}

// probeResult is the outcome of one background health probe.
type probeResult struct {
	err string // "" = ok
	at  time.Time
}

// New builds a Router over the topology's shards. The topology is
// validated; the routing table (which database lives on which shard) is
// the shards' own concern — the router fans out to all of them.
func New(topo *shardmap.Topology, opts Options) (*Router, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	shards := sortedShards(topo)
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	breakers := opts.Breakers
	if breakers == nil {
		breakers = resilience.NewSet(resilience.BreakerOptions{}, opts.Metrics)
	}
	budget := opts.Budget
	if budget == nil {
		budget = resilience.NewBudget(resilience.BudgetOptions{}) // no series: `route` passes its own
	}
	reg := opts.Metrics
	r := &Router{
		client:       client,
		timeout:      timeout,
		breakers:     breakers,
		tracer:       opts.Tracer,
		budget:       budget,
		clock:        clock.Real,
		requests:     reg.DeclareCounter("router_requests_total", "Queries accepted by the cluster router."),
		errors:       reg.DeclareCounter("router_errors_total", "Queries the router failed because no shard answered."),
		shardCalls:   reg.DeclareCounter("router_shard_calls_total", "Per-shard /v1/search calls issued by the router."),
		shardErrors:  reg.DeclareCounter("router_shard_errors_total", "Per-shard /v1/search calls that failed."),
		shardSkips:   reg.DeclareCounter("router_shard_skipped_total", "Per-shard calls held back by an open circuit breaker."),
		shardRetries: reg.DeclareCounter("router_shard_retries_total", "Same-shard retries funded by the cluster retry budget."),
		dedupDrops:   reg.DeclareCounter("router_dedup_dropped_total", "Merged results dropped as duplicate (database, doc id) pairs from replicated shards."),
		fanoutLat:    reg.DeclareHistogram("router_fanout_latency", "Wall time of the scatter-gather over all shards, seconds.", nil),
		mergeLat:     reg.DeclareHistogram("router_merge_latency", "Wall time of the deterministic cluster merge, seconds.", nil),
		lastProbe:    make(map[string]probeResult),
	}
	r.ring.Store(&shards)
	return r, nil
}

// sortedShards copies a topology's shards in sorted-ID order.
func sortedShards(topo *shardmap.Topology) []shardmap.Shard {
	shards := make([]shardmap.Shard, len(topo.Shards))
	copy(shards, topo.Shards)
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	return shards
}

// Breakers exposes the per-shard breaker set (for /debug/breakers).
func (r *Router) Breakers() *resilience.Set { return r.breakers }

// Shards returns the fan-out targets in sorted-ID order.
func (r *Router) Shards() []shardmap.Shard {
	shards := *r.ring.Load()
	out := make([]shardmap.Shard, len(shards))
	copy(out, shards)
	return out
}

// ApplyTopology swaps a validated topology snapshot into the live ring.
// In-flight queries finish on the ring they loaded at entry; new
// queries fan out over the new one. Breaker state carries over for
// every surviving shard ID (including shards whose gateway address
// moved — the breaker describes the backend, not the socket); the
// shards in snap.Diff.ShardsRemoved leave the breaker set and the
// probe-result map; added shards get a fresh breaker that starts closed
// on first use, so concurrent queries never skip a healthy newcomer and
// the merge stays bit-identical to a single process. Health probes need
// no retargeting: each Probe sweep reads the live ring. The caller
// serializes swaps (the watcher's apply hook does) and records them:
// the router keeps no generation of its own.
func (r *Router) ApplyTopology(snap *shardmap.Snapshot) error {
	if snap == nil || snap.Topology == nil {
		return errors.New("router: nil topology snapshot")
	}
	if err := snap.Topology.Validate(); err != nil {
		return err
	}
	shards := sortedShards(snap.Topology)
	r.ring.Store(&shards)
	for _, id := range snap.Diff.ShardsRemoved {
		r.breakers.Remove(id)
		r.probeMu.Lock()
		delete(r.lastProbe, id)
		r.probeMu.Unlock()
	}
	return nil
}

// ProbeTargets returns one health-probe target per shard, keyed like
// the per-shard breakers, pinging the shard gateway's /v1/healthz.
// Every probe's outcome is remembered for ShardHealth.
func (r *Router) ProbeTargets() []resilience.ProbeTarget {
	shards := *r.ring.Load()
	out := make([]resilience.ProbeTarget, len(shards))
	for i, s := range shards {
		id, addr := s.ID, s.Addr
		out[i] = resilience.ProbeTarget{Name: id, Ping: func(ctx context.Context) error {
			err := r.ping(ctx, addr)
			res := probeResult{at: time.Now()}
			if err != nil {
				res.err = err.Error()
			}
			r.probeMu.Lock()
			r.lastProbe[id] = res
			r.probeMu.Unlock()
			return err
		}}
	}
	return out
}

// ShardHealth summarizes every shard's health as the router sees it:
// the breaker state gating its traffic plus the latest background probe
// outcome. Wire it into gateway.Options.ShardHealth so the router's
// /v1/healthz answers for the whole fleet behind it. (Probe only pings
// non-closed breakers, so a shard that never failed reports no probe
// result — absence of evidence is health here.)
func (r *Router) ShardHealth() []wire.ShardHealth {
	shards := *r.ring.Load()
	out := make([]wire.ShardHealth, len(shards))
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	for i, s := range shards {
		state := r.breakers.Get(s.ID).State().String()
		sh := wire.ShardHealth{
			ID:      s.ID,
			Addr:    s.Addr,
			Breaker: state,
			Healthy: state != "open",
		}
		if p, ok := r.lastProbe[s.ID]; ok {
			sh.LastProbe = p.err
			if p.err == "" {
				sh.LastProbe = "ok"
			}
			sh.LastProbeUnixMs = p.at.UnixMilli()
		}
		out[i] = sh
	}
	return out
}

// Probe is one health sweep (resilience.Set.Probe) over the shards of
// the live ring, re-admitting recovered ones; a topology swap's shards
// are probed from the next sweep. Schedule it with clock.Every.
func (r *Router) Probe(ctx context.Context) {
	r.breakers.Probe(ctx, r.ProbeTargets())
}

func (r *Router) ping(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+gateway.PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: shard %s health: HTTP %d", addr, resp.StatusCode)
	}
	return nil
}

// shardReply is one shard's answer (or failure).
type shardReply struct {
	shard   string
	reply   *repro.SearchResponse
	err     error
	skipped bool // breaker held the call back
}

// Search scatters the request to every shard, gathers, and merges: the
// cluster plane's one search call, under the request rule the
// in-process Metasearcher.Search applies (repro.SearchRequest.Normalize).
// It errors only on an invalid request or when no shard produced an
// answer. With req.Events set, the scatter consumes each shard's NDJSON
// event stream instead of its blocking reply, re-merging progress
// cluster-wide as it arrives (see streamMerger); the response, built by
// the same merge over the same shard replies, is bit-identical to a
// search without events.
func (r *Router) Search(ctx context.Context, req repro.SearchRequest) (*repro.SearchResponse, error) {
	req, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	query, maxDBs, perDB := req.Query, req.MaxDBs, req.PerDB
	r.requests.Inc()
	start := time.Now()
	attrs := []telemetry.Attr{
		telemetry.String("query", query),
		telemetry.Int("max_dbs", maxDBs),
		telemetry.Int("per_db", perDB)}
	var span *telemetry.Span
	// Join the caller's trace when one was propagated (the gateway puts
	// the extracted context in ctx); otherwise this fan-out roots it.
	if remote := telemetry.RemoteFromContext(ctx); remote.Valid() {
		span = r.tracer.SpanWithRemoteParent("router.search", remote, attrs...)
	} else {
		span = r.tracer.Span("router.search", attrs...)
	}
	defer span.End()

	if _, ok := ctx.Deadline(); !ok && r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}

	// One ring snapshot per query: a topology swap mid-flight never
	// changes this query's fan-out set.
	shards := *r.ring.Load()
	sm := newStreamMerger(req.Events)
	replies := make([]shardReply, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s shardmap.Shard) {
			defer wg.Done()
			replies[i] = r.searchShard(ctx, span, i, s, query, maxDBs, perDB, sm)
		}(i, s)
	}
	wg.Wait()
	fanout := time.Since(start)
	r.fanoutLat.ObserveExemplar(fanout.Seconds(), span.Context().TraceID)

	tMerge := time.Now()
	resp, ok := r.merge(replies, query)
	r.mergeLat.Observe(time.Since(tMerge).Seconds())
	if !ok {
		r.errors.Inc()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		errs := make([]error, 0, len(replies))
		for _, sr := range replies {
			if sr.err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", sr.shard, sr.err))
			} else if sr.skipped {
				errs = append(errs, fmt.Errorf("%s: breaker open", sr.shard))
			}
		}
		return nil, fmt.Errorf("router: no shard answered: %w", errors.Join(errs...))
	}
	resp.ElapsedSeconds = time.Since(start).Seconds()
	resp.Stages.Fanout = fanout.Seconds()
	resp.Stages.Merge = time.Since(tMerge).Seconds()
	if id := span.Context().TraceID; id != "" {
		resp.TraceID = id
	}
	return resp, nil
}

// searchShard is one shard's share of the scatter, through
// resilience.Do: breaker admission, the call, one budgeted retry of a
// transient failure (a shed is backpressure, not retried) and the
// breaker's verdict.
func (r *Router) searchShard(ctx context.Context, span *telemetry.Span, idx int, s shardmap.Shard, query string, maxDBs, perDB int, sm *streamMerger) shardReply {
	// A streamed scatter (sm != nil) re-merges progress frames as they
	// arrive and gets no retry — replaying half a consumed stream would
	// double-narrate the shard's progress; a failed shard costs coverage
	// exactly as a blocking failure after its retry would.
	policy := resilience.Policy{Retries: 1, Deposit: true, Clock: r.clock, Breakers: r.breakers, Budget: r.budget}
	if sm != nil {
		policy.Retries = 0
	}
	var reply *repro.SearchResponse
	_, err := resilience.Do(ctx, policy, []string{s.ID}, func(ctx context.Context, _, attempt int) error {
		if attempt == 0 {
			r.shardCalls.Inc()
		} else {
			r.shardRetries.Inc()
			span.Event("router.shard_retry", telemetry.String("shard", s.ID))
		}
		var err error
		reply, err = r.callShard(ctx, span, idx, s, query, maxDBs, perDB, sm)
		return err
	})
	switch {
	case errors.Is(err, resilience.ErrShortCircuited):
		r.shardSkips.Inc()
		span.Event("router.shard_skipped", telemetry.String("shard", s.ID))
		return shardReply{shard: s.ID, skipped: true}
	case err != nil:
		r.shardErrors.Inc()
		span.Event("router.shard_error",
			telemetry.String("shard", s.ID),
			telemetry.String("error", err.Error()))
		return shardReply{shard: s.ID, err: err}
	}
	return shardReply{shard: s.ID, reply: reply}
}

// callShard runs one shard's search and returns its reply. Without a
// merger that is one /v1/search call; with one it is the shard's
// /v1/search/stream in NDJSON, whose progress frames feed the merger and
// whose terminal frame carries the byte-identical payload /v1/search
// would have answered with.
//
// It always names k and perdb, so the shard gateway's own defaults never
// decide a cluster answer.
func (r *Router) callShard(ctx context.Context, span *telemetry.Span, idx int, s shardmap.Shard, query string, maxDBs, perDB int, sm *streamMerger) (*repro.SearchResponse, error) {
	q := url.Values{}
	q.Set("q", query)
	q.Set("k", strconv.Itoa(maxDBs))
	q.Set("perdb", strconv.Itoa(perDB))
	path := gateway.PathSearch
	if sm != nil {
		path = gateway.PathSearchStream
		q.Set("format", "ndjson")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.Addr+path+"?"+q.Encode(), nil)
	if err != nil {
		return nil, err
	}
	telemetry.Inject(span.Context(), req.Header)
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, wire.DecodeError(resp)
	}
	if sm != nil {
		return sm.consume(idx, s.ID, resp.Body)
	}
	var reply repro.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("decoding shard %s reply: %w", s.ID, err)
	}
	return &reply, nil
}

// merge combines the shard rankings into a single response, reproducing
// the in-process fan-out's deterministic order exactly. The response is
// the first successful shard's reply in sorted-ID order — its terms,
// scorer, selections and cache/selection stages are the cluster's, as
// selections are identical on every shard by the shrinkage invariant —
// with every shard's results merged in.
func (r *Router) merge(replies []shardReply, query string) (*repro.SearchResponse, bool) {
	var resp *repro.SearchResponse
	var results []repro.Result
	for _, sr := range replies {
		rep := sr.reply
		if rep == nil {
			continue
		}
		if resp == nil {
			resp = rep
		} else {
			// The cluster answer is cached/collapsed only if every
			// shard's share was.
			resp.CacheHit = resp.CacheHit && rep.CacheHit
			resp.SelectionCacheHit = resp.SelectionCacheHit && rep.SelectionCacheHit
			resp.Collapsed = resp.Collapsed && rep.Collapsed
		}
		results = append(results, rep.Results...)
	}
	if resp == nil {
		return nil, false
	}
	resp.Query = query
	// Replicated databases are owned by several shards and arrive once
	// per owner with identical scores; only this, the final merge, counts
	// the duplicates it drops (re-merging the same replicas per progress
	// frame must not inflate the counter).
	var dups int
	resp.Results, dups = repro.MergeResults(results)
	r.dedupDrops.Add(int64(dups))
	return resp, true
}

// streamMerger re-merges per-shard progress frames into cluster-wide
// observer events. Selection frames are identical on every shard (the
// shrinkage invariant), so the first one becomes the cluster's;
// node_result frames are deduplicated by database (replicas report the
// same node) and out-of-scope frames dropped (the owning shard reports
// the real outcome); each shard merge_update replaces that shard's
// partial, and the cluster partial — the shards' partials through
// repro.MergeResults, exactly the final merge — is re-emitted after
// every change.
type streamMerger struct {
	obs repro.SearchEvents

	mu       sync.Mutex
	total    int             // len(selections), once the first selection lands
	selected bool            // selection forwarded
	nodeSeen map[string]bool // database → node_result forwarded
	partials map[int][]repro.Result
}

// newStreamMerger returns nil for a nil observer, so the blocking path
// pays nothing.
func newStreamMerger(obs repro.SearchEvents) *streamMerger {
	if obs == nil {
		return nil
	}
	return &streamMerger{
		obs:      obs,
		nodeSeen: make(map[string]bool),
		partials: make(map[int][]repro.Result),
	}
}

func (sm *streamMerger) onSelection(sel gateway.StreamSelection) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.selected {
		return
	}
	sm.selected = true
	sm.total = len(sel.Selections)
	sm.obs.Selection(sel.Selections, sel.Terms, sel.Scorer)
}

func (sm *streamMerger) onNodeResult(nr repro.NodeEvent) {
	if nr.OutOfScope {
		return
	}
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if sm.nodeSeen[nr.Database] {
		return
	}
	sm.nodeSeen[nr.Database] = true
	// The shard counted progress over its own slots; the cluster's is
	// over the selected databases.
	nr.Completed, nr.Total = len(sm.nodeSeen), sm.total
	sm.obs.NodeResult(nr)
}

// onPartial replaces one shard's latest partial merge and re-emits the
// cluster partial over every shard's current state.
func (sm *streamMerger) onPartial(shard int, results []repro.Result) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	sm.partials[shard] = results
	var all []repro.Result
	for _, p := range sm.partials {
		all = append(all, p...)
	}
	all, _ = repro.MergeResults(all)
	sm.obs.MergeUpdate(all)
}

// consume reads one shard's NDJSON event stream to its end, feeding
// progress frames through the merger, and returns the reply carried by
// the terminal frame.
func (sm *streamMerger) consume(idx int, shard string, body io.Reader) (*repro.SearchResponse, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamFrame)
	var final *repro.SearchResponse
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f evtstream.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, fmt.Errorf("shard %s stream: malformed frame: %w", shard, err)
		}
		switch f.Type {
		case evtstream.TypeSelection:
			var sel gateway.StreamSelection
			if err := json.Unmarshal(f.Data, &sel); err == nil {
				sm.onSelection(sel)
			}
		case evtstream.TypeNodeResult:
			var nr repro.NodeEvent
			if err := json.Unmarshal(f.Data, &nr); err == nil {
				sm.onNodeResult(nr)
			}
		case evtstream.TypeMergeUpdate:
			var mu gateway.StreamMergeUpdate
			if err := json.Unmarshal(f.Data, &mu); err == nil {
				sm.onPartial(idx, mu.Results)
			}
		case evtstream.TypeFinal:
			var reply repro.SearchResponse
			if err := json.Unmarshal(f.Data, &reply); err != nil {
				return nil, fmt.Errorf("shard %s stream: malformed final frame: %w", shard, err)
			}
			final = &reply
			sm.onPartial(idx, reply.Results)
		case evtstream.TypeError:
			var se gateway.StreamError
			if err := json.Unmarshal(f.Data, &se); err != nil {
				return nil, fmt.Errorf("shard %s stream: malformed error frame: %w", shard, err)
			}
			return nil, fmt.Errorf("shard %s stream error (%s): %s", shard, se.Code, se.Message)
		}
		// Heartbeats and unknown (newer-schema droppable) frames are
		// skipped: the stream contract keys on the critical types.
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("shard %s stream: %w", shard, err)
	}
	if final == nil {
		return nil, fmt.Errorf("shard %s stream ended without a terminal frame", shard)
	}
	return final, nil
}

// maxStreamFrame bounds one NDJSON frame read from a shard stream.
const maxStreamFrame = 8 << 20
