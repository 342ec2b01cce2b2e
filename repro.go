// Package repro implements shrinkage-based content summaries for
// distributed text database selection, reproducing Ipeirotis & Gravano,
// "When one Sample is not Enough: Improving Text Database Selection
// Using Shrinkage" (SIGMOD 2004).
//
// A Metasearcher mediates queries over many text databases that expose
// only a search interface (match counts + ranked document retrieval).
// For each registered database it builds an approximate content summary
// by query-based sampling, classifies the database into a topic
// hierarchy (via probing, or a caller-provided category), improves the
// summary by "shrinking" it towards the summaries of topically related
// databases, and at query time ranks the databases with a selection
// algorithm (bGlOSS, CORI, or LM) — adaptively deciding per query and
// per database whether the shrunk summary should be used.
//
// Quick start:
//
//	m := repro.New(repro.Options{})
//	m.Train("Health", healthDocs)             // classifier examples
//	m.AddDatabase(db, "")                     // "" = classify by probing
//	if err := m.BuildSummaries(); err != nil { ... }
//	sels, err := m.Select("blood hypertension treatment", 5)
//	if err != nil { ... }
//	for _, sel := range sels {
//		fmt.Println(sel.Database, sel.Score)
//	}
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"repro/internal/audit"
	"repro/internal/cache"
	"repro/internal/classify"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/index"
	"repro/internal/pool"
	"repro/internal/resilience"
	"repro/internal/sampling"
	"repro/internal/selection"
	"repro/internal/telemetry"
	"repro/internal/textproc"
)

// SearchableDatabase is the interface a remote text database must
// implement: exactly what an uncooperative web database's search form
// exposes. Implementations must be safe for concurrent use.
type SearchableDatabase interface {
	// Name identifies the database.
	Name() string
	// Query evaluates a conjunctive query, returning the total number
	// of matching documents and the top-ranked matches (at most limit).
	Query(terms []string, limit int) (matches int, ids []int)
	// Fetch returns the text terms of one document.
	Fetch(id int) []string
}

// ContextSearchableDatabase extends SearchableDatabase with
// cancellable, fallible calls — the honest shape of a database at the
// other end of a network. The pipeline prefers these methods when a
// database implements them: BuildSummariesContext cancellation aborts
// in-flight probes, and Search treats a query error as "node
// unreachable" (the database is skipped, like a missing handle).
// The plain SearchableDatabase methods remain the compatibility shim
// for in-process databases, which cannot fail.
type ContextSearchableDatabase interface {
	SearchableDatabase
	// QueryContext is Query under a context.
	QueryContext(ctx context.Context, terms []string, limit int) (matches int, ids []int, err error)
	// FetchContext is Fetch under a context.
	FetchContext(ctx context.Context, id int) ([]string, error)
}

// Options configures a Metasearcher. The zero value is usable.
type Options struct {
	// Categories is the topic hierarchy as nested specs. Nil uses the
	// built-in 72-node ODP-style hierarchy the paper evaluates with.
	Categories *CategorySpec
	// SampleSize is the query-based sampling target (default 300, as in
	// the paper).
	SampleSize int
	// Scorer selects the selection algorithm: "cori" (default),
	// "bgloss", or "lm", in any case. Any other name fails
	// BuildSummaries, Load, Select and Search.
	Scorer string
	// SeedLexicon supplies bootstrap words for QBS; nil uses a small
	// built-in English word list.
	SeedLexicon []string
	// Analyzer options for query/document text (stopword removal and
	// stemming on by default, matching the paper's configuration).
	KeepStopwords bool
	NoStemming    bool
	// Parallelism bounds how many databases BuildSummaries samples
	// concurrently (sampling a remote database is latency-bound, so
	// the useful width is the caller's to choose). 0 or 1 samples
	// sequentially. It is the sampling width only: the CPU-bound
	// passes over the whole store (shrinkage, Save, Load) use
	// GOMAXPROCS workers regardless. Results are independent of
	// both: every database derives its own random stream, and no
	// pass changes the order of a float sum.
	Parallelism int
	// Seed drives the sampling of the databases (BuildSummaries).
	// Selection does not depend on it.
	Seed int64
	// Observer receives structured trace events from the whole pipeline
	// (sampling rounds, classification probing, EM convergence, adaptive
	// decisions, search fan-out). Nil disables tracing at zero cost; see
	// telemetry.Capture (tests) and telemetry.RingCapture (serving).
	Observer telemetry.Observer
	// Logger, when non-nil, receives pipeline progress and warnings
	// (databases sampled, dead backends skipped during Search).
	Logger *slog.Logger
	// Metrics is the registry pipeline counters, gauges, and latency
	// histograms are recorded in. Nil creates a private registry,
	// retrievable via Metasearcher.Metrics; pass a shared registry to
	// aggregate several metasearchers into one /metrics endpoint.
	Metrics *telemetry.Registry
	// AuditSize bounds the in-memory ring of per-query audit records
	// (audit.QueryRecord: selection scores, shrinkage verdicts, per-node
	// costs, merged-result provenance) retrievable via Audit and served
	// at /debug/queries. 0 selects audit.DefaultCapacity; negative
	// disables query auditing entirely.
	AuditSize int
	// AuditLog, when non-nil, additionally receives every audit record
	// as one JSON line (JSONL) — a durable selection audit trail.
	AuditLog io.Writer
	// Resilience tunes the search fan-out's fault tolerance: deadline
	// budget, hedging, and per-node circuit breakers. The zero value
	// selects sensible defaults (breakers on, hedging auto-tuned from
	// the fan-out's own p95 node-call latency, no overall deadline).
	Resilience ResilienceOptions
	// Cache tunes the query-path caches. The zero value enables both
	// tiers with defaults; set Cache.Disable to turn caching off.
	Cache CacheConfig

	// clock times breaker cooldowns, health-probe intervals, hedge
	// timers and replica drains (nil: real time; tests set a fake).
	// Deadlines stay on the wall clock: see internal/clock.
	clock clock.Clock
}

// CacheConfig tunes the Metasearcher's two query-path cache tiers.
//
// The selection tier caches the adaptive-selection decision (every
// database's score moments over its document-frequency posteriors),
// keyed by the analyzed query terms, the scorer, and k. Selection depends
// only on those inputs and the current summaries, so entries stay valid
// until the summaries change — SaveFile, LoadFile, BuildSummaries and
// every summary rebuild or topology swap bump the cache generation,
// staling every entry at once.
//
// The result tier additionally caches the merged document ranking,
// keyed by the selection key plus perDB. Results also depend on the
// remote databases' live contents, which the metasearcher cannot
// observe changing, so this tier gets a short TTL rather than relying
// on generation bumps alone. Concurrent identical queries collapse onto
// one in-flight search (singleflight).
type CacheConfig struct {
	// Disable turns both cache tiers off.
	Disable bool
	// Size is the per-tier entry capacity (default 1024).
	Size int
	// TTL bounds a selection entry's life (default 10m). Negative
	// disables expiry (generation bumps still invalidate).
	TTL time.Duration
	// ResultTTL bounds a result entry's life (default 30s; negative
	// disables expiry).
	ResultTTL time.Duration
}

// ttl resolves a configured TTL: 0 selects def, negative means none.
func ttlOrDefault(d, def time.Duration) time.Duration {
	if d == 0 {
		return def
	}
	if d < 0 {
		return 0
	}
	return d
}

// ResilienceOptions tunes how Search fans out over selected
// databases when some of them are slow, overloaded, or down.
type ResilienceOptions struct {
	// DeadlineBudget bounds the whole fan-out: every node call runs
	// under a context that expires this long after the fan-out starts,
	// so one hung node cannot stall the merged answer. 0 = no budget
	// (the caller's context still applies).
	DeadlineBudget time.Duration
	// HedgeAfter is the latency threshold past which a node call is
	// hedged with a second identical request (first success wins, loser
	// cancelled). 0 = auto: the p95 of the fan-out's own recent remote
	// node calls (latencyRing), floored at hedgeFloor. Negative disables
	// hedging.
	HedgeAfter time.Duration
}

// hedgeFloor is the minimum auto-derived hedge threshold: with too few
// observations the p95 is noise, and hedging below the floor would
// double traffic for no tail to cut.
const hedgeFloor = 250 * time.Millisecond

// CategorySpec mirrors a topic-hierarchy node for Options.
type CategorySpec struct {
	Name     string
	Children []*CategorySpec
}

// ParseHierarchy reads an indentation-structured taxonomy (one category
// per line, one tab or four spaces per level, '#' comments) into a
// CategorySpec for Options.Categories:
//
//	Root
//		Health
//			Diseases
//		Sports
func ParseHierarchy(r io.Reader) (*CategorySpec, error) {
	tree, err := hierarchy.Parse(r)
	if err != nil {
		return nil, err
	}
	var build func(id hierarchy.NodeID) *CategorySpec
	build = func(id hierarchy.NodeID) *CategorySpec {
		c := &CategorySpec{Name: tree.Node(id).Name}
		for _, ch := range tree.Children(id) {
			c.Children = append(c.Children, build(ch))
		}
		return c
	}
	return build(hierarchy.Root), nil
}

// Selection is one ranked database, in Select's result and — as is, the
// tags are the wire format — in a search reply and a stream's selection
// frame.
type Selection struct {
	// Database is the database's name.
	Database string `json:"database"`
	// Score is the selection algorithm's s(q, D).
	Score float64 `json:"score"`
	// Shrinkage reports whether the shrunk summary was used to score
	// this database for this query.
	Shrinkage bool `json:"shrinkage,omitempty"`
}

// Metasearcher is the end-to-end system of the paper. Methods are safe
// for concurrent use: queries read the published summary store without
// locking while a rebuild, load, or topology swap prepares the next one
// (see store.go).
type Metasearcher struct {
	opts      Options
	tree      *hierarchy.Tree
	scorer    selection.Scorer // Options.Scorer resolved once; nil with scorerErr set
	scorerErr error
	reg       *telemetry.Registry
	clock     clock.Clock     // Options.clock, or real time
	met       pipelineMetrics // the root package's series, resolved once in New
	tracer    *telemetry.Tracer
	logger    *slog.Logger       // nil = logging disabled
	audit     *audit.Log         // nil = query auditing disabled
	breakers  *resilience.Set    // per-database breakers, and the replicas' when shared
	budget    *resilience.Budget // process-wide retry/hedge budget
	selCache  *cache.Cache       // selection tier; nil = caching disabled
	resCache  *cache.Cache       // merged-result tier; nil = caching disabled

	nodeLatency latencyRing // recent remote node-call latencies; hedgeThreshold reads its p95

	published // the summary store and its writers' state (store.go)
}

// New creates a Metasearcher.
func New(opts Options) *Metasearcher {
	var tree *hierarchy.Tree
	if opts.Categories != nil {
		tree = hierarchy.MustNew(toSpec(opts.Categories))
	} else {
		tree = hierarchy.Default()
	}
	if opts.SampleSize == 0 {
		opts.SampleSize = 300
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	var alog *audit.Log
	if opts.AuditSize >= 0 {
		alog = audit.NewLog(opts.AuditSize)
		alog.SetSink(opts.AuditLog)
	}
	clk := clock.Or(opts.clock)
	scorer, err := selection.ByName(opts.Scorer)
	if err != nil {
		err = fmt.Errorf("repro: Options.Scorer: %w", err)
	}
	m := &Metasearcher{
		opts:      opts,
		tree:      tree,
		scorer:    scorer,
		scorerErr: err,
		reg:       reg,
		clock:     clk,
		met:       newPipelineMetrics(reg),
		tracer:    telemetry.NewTracer(opts.Observer),
		logger:    opts.Logger,
		audit:     alog,
		breakers:  resilience.NewSet(resilience.BreakerOptions{Clock: clk}, reg),
		budget:    resilience.NewBudget(resilience.BudgetOptions{Metrics: reg}),

		published: published{training: &classify.TrainingSet{}},
	}
	m.state.Store(newStore(nil))
	if !opts.Cache.Disable {
		m.selCache = cache.New(cache.Options{
			Name:     "selection_cache",
			Capacity: opts.Cache.Size,
			TTL:      ttlOrDefault(opts.Cache.TTL, 10*time.Minute),
			Metrics:  reg,
		})
		m.resCache = cache.New(cache.Options{
			Name:     "result_cache",
			Capacity: opts.Cache.Size,
			TTL:      ttlOrDefault(opts.Cache.ResultTTL, 30*time.Second),
			Metrics:  reg,
		})
	}
	return m
}

// invalidateCaches bumps the query-cache generation, instantly staling
// every cached selection and merged result. SaveFile and update (every
// publish of a new store) call it. O(1) and non-blocking; a no-op when
// caching is disabled.
func (m *Metasearcher) invalidateCaches() {
	m.selCache.Invalidate()
	m.resCache.Invalidate()
}

// Metrics returns the registry this metasearcher records pipeline
// telemetry in (serve it with telemetry.Registry.Handler, or snapshot
// it for reports). Never nil.
func (m *Metasearcher) Metrics() *telemetry.Registry { return m.reg }

// Breakers returns the per-node circuit-breaker set the search fan-out
// consults (serve its Handler at /debug/breakers). Never nil; breakers
// follow the resilience package's fixed policy (DESIGN §9.4).
func (m *Metasearcher) Breakers() *resilience.Set { return m.breakers }

// RetryBudget returns the process-wide retry/hedge budget. Pass it to
// the wire clients of remote databases (replica.ClientOptions.Budget)
// so their retries draw from the same bucket as the fan-out's hedges.
func (m *Metasearcher) RetryBudget() *resilience.Budget { return m.budget }

// Probe is one health sweep (resilience.Set.Probe) over the remote
// databases as they are registered now: it pings the /v1/health
// endpoint of each one whose breaker is not closed, so an open breaker
// closes as soon as its node recovers, without waiting for live query
// traffic. A replica.Database contributes one target per replica
// (keyed "name@addr", the same keys its per-replica breakers use) plus
// a database-level target that succeeds while any replica does. The
// targets are read at every sweep, so replicas a topology swap brings in
// are probed from the next one. Schedule it with clock.Every.
func (m *Metasearcher) Probe(ctx context.Context) {
	m.breakers.Probe(ctx, m.state.Load().probeTargets())
}

// Audit returns the per-query audit trail: one audit.QueryRecord per
// Search call, newest last, holding the selection evidence (scores,
// shrinkage verdicts with λ mixtures, score mean and σ), per-node
// call costs, and merged-result provenance. Serve it over HTTP with
// Audit().Handler() (the /debug/queries endpoints), or inspect it with
// Last/Get/Recent. Nil when Options.AuditSize is negative — and every
// audit.Log method is nil-safe, so callers need no guard.
func (m *Metasearcher) Audit() *audit.Log { return m.audit }

// pipelineMetrics is every series the root package records, declared
// once (name, help text, handle) so that an exposition endpoint shows
// the full schema at zero before traffic arrives and the query path
// looks nothing up by name. DESIGN.md §8 is generated from these
// declarations; the metric-hygiene test fails a series without one.
type pipelineMetrics struct {
	buildRuns      *telemetry.Counter
	buildDatabases *telemetry.Gauge
	buildLatency   *telemetry.Histogram
	vocabSize      *telemetry.Gauge

	selectRequests *telemetry.Counter
	selectLatency  *telemetry.Histogram

	searchRequests *telemetry.Counter
	searchInflight *telemetry.Gauge
	searchLatency  *telemetry.Histogram
	dbLatency      *telemetry.Histogram
	dbUnavailable  *telemetry.Counter
	resultsMerged  *telemetry.Counter
	hedges         *telemetry.Counter
	hedgeWins      *telemetry.Counter
	breakerOpen    *telemetry.Counter
	sheds          *telemetry.Counter
	outOfScope     *telemetry.Counter

	// Per-stage decomposition of searchLatency: cache lookup → selection
	// → fan-out → merge.
	stageCache, stageSelection, stageFanout, stageMerge *telemetry.Histogram
}

func newPipelineMetrics(reg *telemetry.Registry) pipelineMetrics {
	// Series recorded by code that has no constructor to declare them in
	// — core.Shrink, the samplers, the classifier, selection.Adaptive and
	// pool.ForEach fetch theirs by name from the registry a call is
	// handed, as a replica set does at dial time.
	reg.DeclareCounter("sampling_queries_total", "Query-based-sampling probe queries sent to databases.")
	reg.DeclareCounter("sampling_docs_fetched_total", "Documents fetched while sampling database content.")
	reg.DeclareCounter("classify_probes_total", "Classification probe queries sent during hierarchy placement.")
	reg.DeclareCounter("em_runs_total", "EM shrinkage estimations run (one per database).")
	reg.DeclareCounter("em_iterations_total", "Total EM iterations across all shrinkage runs.")
	reg.DeclareCounter("adaptive_shrinkage_applied_total", "Per-query decisions that used the shrunk summary.")
	reg.DeclareCounter("adaptive_shrinkage_skipped_total", "Per-query decisions that kept the unshrunk summary.")
	reg.DeclareCounter("adaptive_queries_total", "Queries that went through the adaptive shrinkage decision.")
	reg.DeclareCounter("adaptive_queries_shrunk_total", "Queries whose selection used at least one shrunk summary.")
	reg.DeclareHistogram("adaptive_score_cv", "Score uncertainty σ/μ per adaptive decision, μ net of the scorer's baseline: Figure 3 applies shrinkage above 1.", selection.ScoreCVBuckets)
	reg.DeclareCounter("replica_failover_total", "Database calls that failed over to a non-preferred replica.")
	reg.DeclareCounter("replica_exhausted_total", "Database calls that ran out of replicas entirely.")
	reg.DeclareCounter("concurrency_tasks_started_total", "Tasks started by the pipeline's bounded worker pools.")
	reg.DeclareCounter("concurrency_tasks_failed_total", "Worker-pool tasks that returned an error.")

	return pipelineMetrics{
		buildRuns:      reg.DeclareCounter("build_runs_total", "BuildSummaries pipeline runs (sample, classify, shrink)."),
		buildDatabases: reg.DeclareGauge("build_databases", "Databases covered by the latest BuildSummaries run."),
		buildLatency:   reg.DeclareHistogram("build_latency", "Wall time of BuildSummaries runs, seconds.", nil),
		vocabSize:      reg.DeclareGauge("sampling_vocab_size", "Distinct terms in the most recently sampled vocabulary."),

		selectRequests: reg.DeclareCounter("select_requests_total", "Database-selection requests (Select and the search pipeline)."),
		selectLatency:  reg.DeclareHistogram("select_latency", "Latency of database-selection decisions, seconds.", nil),

		searchRequests: reg.DeclareCounter("search_requests_total", "Search requests through Metasearcher.Search."),
		searchInflight: reg.DeclareGauge("search_inflight", "Search requests currently inside Metasearcher.Search."),
		searchLatency:  reg.DeclareHistogram("search_latency", "End-to-end search latency, seconds.", nil),
		dbLatency:      reg.DeclareHistogram("search_db_latency", "Per-database query-call latency inside the fan-out, seconds.", nil),
		dbUnavailable:  reg.DeclareCounter("search_db_unavailable_total", "Selected databases whose query call failed or was cut short by the fan-out's end (one without a live handle is out of scope instead)."),
		resultsMerged:  reg.DeclareCounter("search_results_merged_total", "Documents merged into final rankings across all searches."),
		hedges:         reg.DeclareCounter("search_hedges_total", "Hedge requests launched against slow database calls."),
		hedgeWins:      reg.DeclareCounter("search_hedge_wins_total", "Hedge requests that beat their primary attempt."),
		breakerOpen:    reg.DeclareCounter("search_breaker_open_total", "Database calls short-circuited by an open breaker."),
		sheds:          reg.DeclareCounter("search_sheds_total", "Database call attempts shed by a node's admission gate (429)."),
		outOfScope:     reg.DeclareCounter("search_out_of_scope_total", "Selected databases skipped: no live handle in this process (another shard's slice)."),

		stageCache:     reg.DeclareHistogram("search_stage_cache_latency", "Search time spent in cache lookup and bookkeeping, seconds.", nil),
		stageSelection: reg.DeclareHistogram("search_stage_selection_latency", "Search time spent in database selection, seconds.", nil),
		stageFanout:    reg.DeclareHistogram("search_stage_fanout_latency", "Search time spent in the parallel database fan-out, seconds.", nil),
		stageMerge:     reg.DeclareHistogram("search_stage_merge_latency", "Search time spent merging and ranking results, seconds.", nil),
	}
}

// logInfo and logWarn guard the optional logger.
func (m *Metasearcher) logInfo(msg string, args ...interface{}) {
	if m.logger != nil {
		m.logger.Info(msg, args...)
	}
}

func (m *Metasearcher) logWarn(msg string, args ...interface{}) {
	if m.logger != nil {
		m.logger.Warn(msg, args...)
	}
}

func toSpec(c *CategorySpec) hierarchy.Spec {
	s := hierarchy.Spec{Name: c.Name}
	for _, ch := range c.Children {
		s.Children = append(s.Children, toSpec(ch))
	}
	return s
}

// Train adds labeled example documents for a category, used to learn
// the classification probes (the role of directory-labeled pages in the
// paper). Must be called before BuildSummaries. Documents are raw text.
func (m *Metasearcher) Train(category string, docs []string) error {
	id, ok := m.tree.Lookup(category)
	if !ok {
		return fmt.Errorf("repro: unknown category %q", category)
	}
	analyzed := make([][]string, len(docs))
	for i, d := range docs {
		analyzed[i] = m.analyze(d)
	}
	return m.update(func(cur *store) (*store, error) {
		for _, d := range analyzed {
			m.training.Add(id, d)
		}
		return newStore(cur.dbs), nil
	})
}

// AddDatabase registers a database. category may name a hierarchy node
// (the paper's "existing classification" case, e.g. a web directory) or
// be empty, in which case the database is classified automatically by
// query probing during BuildSummaries.
func (m *Metasearcher) AddDatabase(db SearchableDatabase, category string) error {
	r := &registeredDB{db: db, category: -1}
	r.src.Name = db.Name()
	if category != "" {
		id, ok := m.tree.Lookup(category)
		if !ok {
			return fmt.Errorf("repro: unknown category %q", category)
		}
		r.category = id
	}
	return m.update(func(cur *store) (*store, error) {
		if known, _ := cur.lookup(r.src.Name); known != nil {
			return nil, fmt.Errorf("repro: database %q already registered", r.src.Name)
		}
		return newStore(append(cur.dbs[:len(cur.dbs):len(cur.dbs)], r)), nil
	})
}

// analyze runs the configured text pipeline.
func (m *Metasearcher) analyze(text string) []string {
	return textproc.Analyze(text, textproc.Options{
		RemoveStopwords: !m.opts.KeepStopwords,
		Stem:            !m.opts.NoStemming,
		MinLength:       2,
	})
}

// analyzeTerms filters pre-tokenized terms (database documents arrive
// as terms via Fetch).
func (m *Metasearcher) analyzeTerms(terms []string) []string {
	return textproc.Filter(terms, textproc.Options{
		RemoveStopwords: !m.opts.KeepStopwords,
		Stem:            !m.opts.NoStemming,
		MinLength:       2,
	})
}

// BuildSummaries samples every registered database, classifies it,
// estimates sizes and frequencies, and computes the shrunk content
// summaries. It must be called after registering databases and before
// Select.
func (m *Metasearcher) BuildSummaries() error {
	return m.BuildSummariesContext(context.Background())
}

// BuildSummariesContext is BuildSummaries under a context. Cancelling
// ctx aborts the build: samplers stop between probes, and databases
// implementing ContextSearchableDatabase have their in-flight remote
// calls cancelled too. Queries keep being answered from the previous
// summaries until the build publishes; a build that fails part-way
// publishes nothing.
func (m *Metasearcher) BuildSummariesContext(ctx context.Context) error {
	if m.scorerErr != nil {
		return m.scorerErr
	}
	return m.update(func(cur *store) (*store, error) {
		if len(cur.dbs) == 0 {
			return nil, errors.New("repro: no databases registered")
		}
		t0 := time.Now()
		buildSpan := m.tracer.Span("build", telemetry.Int("databases", len(cur.dbs)))
		defer buildSpan.End()
		defer m.met.buildLatency.ObserveSince(t0)
		m.met.buildRuns.Inc()
		m.met.buildDatabases.Set(float64(len(cur.dbs)))

		needProbing := false
		for _, r := range cur.dbs {
			if r.category < 0 {
				needProbing = true
			}
		}
		var classifier *classify.Classifier
		if needProbing {
			if m.training.Len() == 0 {
				return nil, errors.New("repro: probe classification requires Train examples")
			}
			var err error
			if classifier, err = classify.Train(m.tree, m.training, classify.Options{}); err != nil {
				return nil, err
			}
		}
		lexicon := m.seedLexicon()

		// Each database's randomness is derived from its own seed, so
		// results are identical under any Parallelism setting. Sampling a
		// remote database is latency-bound, which is where the
		// concurrency pays off.
		dbs := make([]*registeredDB, len(cur.dbs))
		err := pool.ForEach(len(dbs), m.opts.Parallelism, m.reg, func(i int) (err error) {
			dbs[i], err = m.sampleDatabase(ctx, buildSpan, cur.dbs[i], m.opts.Seed+int64(i), classifier, lexicon)
			return err
		})
		if err != nil {
			return nil, err
		}
		st := m.deriveStore(dbs, lexicon, m.training.Len(), buildSpan)
		m.logInfo("summaries built", "databases", len(dbs), "elapsed", time.Since(t0))
		return st, nil
	})
}

// sampleDatabase is the per-database offline stage: draw a query-based
// sample of reg's database, classify it by probing unless its category
// was given, and summarize the sample. It returns a fresh entry; reg is
// not modified.
func (m *Metasearcher) sampleDatabase(ctx context.Context, buildSpan *telemetry.Span, reg *registeredDB, seed int64, classifier *classify.Classifier, lexicon []string) (*registeredDB, error) {
	r := *reg
	sampleSpan := buildSpan.Child("sample",
		telemetry.String("db", r.src.Name), telemetry.String("sampler", "qbs"))
	searcher := m.searcher(ctx, sampleSpan, r.db)
	sample, err := m.sampleQBS(searcher, sampleSpan, lexicon, m.opts.SampleSize, seed)
	sampleSpan.End(queriesDocsAttrs(sample)...)
	if err != nil {
		return nil, fmt.Errorf("sampling %s: %w", r.src.Name, err)
	}
	r.src.Category = r.category
	if r.category < 0 {
		classifySpan := buildSpan.Child("classify", telemetry.String("db", r.src.Name))
		r.src.Category = classifier.ClassifyTraced(searcher, classifySpan, m.reg)
		classifySpan.End(telemetry.String("category", m.tree.PathString(r.src.Category)))
	}
	m.summarizeSample(&r, sample)
	m.met.vocabSize.Set(float64(r.src.Sum.Len()))
	m.logInfo("sampled database",
		"db", r.src.Name, "sampler", "qbs",
		"queries", sample.Queries, "docs", len(sample.Docs), "vocab", r.src.Sum.Len())
	return &r, nil
}

// queriesDocsAttrs annotates a sample span's end event (nil-tolerant:
// sampling may have failed).
func queriesDocsAttrs(s *sampling.Sample) []telemetry.Attr {
	if s == nil {
		return nil
	}
	return []telemetry.Attr{
		telemetry.Int("queries", s.Queries),
		telemetry.Int("docs", len(s.Docs)),
	}
}

// Select ranks the databases for a free-text query and returns the top
// k (possibly fewer: databases indistinguishable from knowing nothing
// about the query are not selected, as in the paper). Repeated Selects
// for the same terms and k are served from the selection cache
// until the summaries change (see CacheConfig). k must be positive.
func (m *Metasearcher) Select(query string, k int) ([]Selection, error) {
	if err := checkMaxDBs(k); err != nil {
		return nil, err
	}
	sels, _, _, err := m.selectCached(context.Background(), nil, m.analyze(query), k)
	if err != nil {
		return nil, err
	}
	// The cached slice is shared; hand the caller their own copy.
	out := make([]Selection, len(sels))
	copy(out, sels)
	return out, nil
}

// selectionExplain is the selection step's audit evidence: everything
// a QueryRecord needs that only the selection code knows.
type selectionExplain struct {
	terms      []string
	scorer     string
	candidates []audit.Candidate
}

// selectExplained is the online selection stage (Figure 3) over one
// loaded store, with its audit evidence: the analyzed terms, the scorer
// used, and one audit.Candidate per registered database (in
// registration order) carrying the score, the shrinkage verdict with
// the score mean and σ behind it, and — when shrinkage fired — the λ
// mixture the shrunk summary was built with.
func (m *Metasearcher) selectExplained(parent *telemetry.Span, terms []string, k int) ([]Selection, *selectionExplain, error) {
	if m.scorerErr != nil {
		return nil, nil, m.scorerErr
	}
	st := m.state.Load()
	if st.derived == nil {
		return nil, nil, errors.New("repro: BuildSummaries has not been run")
	}
	if len(terms) == 0 {
		return nil, nil, errors.New("repro: query has no indexable terms")
	}

	t0 := time.Now()
	span := parent.Child("select", telemetry.Int("terms", len(terms)), telemetry.Int("k", k))
	if parent == nil {
		span = m.tracer.Span("select", telemetry.Int("terms", len(terms)), telemetry.Int("k", k))
	}
	m.met.selectRequests.Inc()
	defer m.met.selectLatency.ObserveSince(t0)

	base := m.scorer
	adaptive := &selection.Adaptive{Base: base, Metrics: m.reg}
	ranked, decisions := adaptive.Rank(terms, st.derived.DBs, st.derived.Root)

	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]Selection, 0, k)
	selected := make(map[string]bool, k)
	for _, r := range ranked[:k] {
		out = append(out, Selection{
			Database:  r.Name,
			Score:     r.Score,
			Shrinkage: decisions[r.Index].Shrinkage,
		})
		selected[r.Name] = true
	}
	ex := &selectionExplain{
		terms:      terms,
		scorer:     base.Name(),
		candidates: make([]audit.Candidate, len(st.dbs)),
	}
	for i, r := range st.dbs {
		d := decisions[i]
		c := audit.Candidate{
			Database:    r.src.Name,
			Score:       d.Score,
			Selected:    selected[r.src.Name],
			Shrinkage:   d.Shrinkage,
			ScoreMean:   d.Mean,
			ScoreStdDev: d.StdDev,
		}
		if d.Shrinkage {
			sh := st.derived.Shrunk[i]
			c.Lambdas = sh.Lambdas()
			c.Category = sh.Category()
		}
		ex.candidates[i] = c
	}
	span.End(telemetry.Int("selected", len(out)))
	return out, ex, nil
}

// DatabaseInfo describes one registered database after BuildSummaries.
type DatabaseInfo struct {
	Name          string
	Category      string  // assigned classification (path string)
	EstimatedSize float64 // sample-resample |D̂|
	SampleSize    int
	SummaryWords  int // unshrunk vocabulary size
	// MixtureWeights is the λ vector of the shrunk summary, uniform
	// component first, the database itself last — the vector selection
	// and the audit trail use, shared with the store: read it, do not
	// modify it.
	MixtureWeights []core.Lambda
	// SampleQueries is the queries the sampler issued; it survives a
	// Save/Load round trip (zero when loaded from a save file that
	// predates telemetry persistence).
	SampleQueries int
	// EMIterations is Figure 2's EM iterations to convergence in the
	// fit behind MixtureWeights.
	EMIterations int
}

// Info reports the built state of a database.
func (m *Metasearcher) Info(name string) (DatabaseInfo, error) {
	st := m.state.Load()
	r, i := st.lookup(name)
	if r == nil {
		return DatabaseInfo{}, fmt.Errorf("repro: unknown database %q", name)
	}
	if st.derived == nil {
		return DatabaseInfo{}, errors.New("repro: BuildSummaries has not been run")
	}
	sh := st.derived.Shrunk[i]
	return DatabaseInfo{
		Name:           name,
		Category:       m.tree.PathString(r.src.Category),
		EstimatedSize:  r.src.Size,
		SampleSize:     r.src.Sum.SampleSize,
		SummaryWords:   r.src.Sum.Len(),
		MixtureWeights: sh.Lambdas(),
		SampleQueries:  r.sampleQueries,
		EMIterations:   sh.EMIterations(),
	}, nil
}

// dbSearcher adapts a SearchableDatabase to the internal sampling and
// classification interfaces, applying the text pipeline to fetched
// documents. When the database implements ContextSearchableDatabase
// the context-aware methods are used, so remote calls can fail softly
// and are cancelled with the build; plain databases fall back to the
// infallible methods after a cancellation check.
type dbSearcher struct {
	m   *Metasearcher
	db  SearchableDatabase
	ctx context.Context // the build's context (for MatchCount, which has no ctx parameter)
}

func (s *dbSearcher) Query(ctx context.Context, terms []string, limit int) (int, []index.DocID, error) {
	var matches int
	var ids []int
	if cdb, ok := s.db.(ContextSearchableDatabase); ok {
		var err error
		matches, ids, err = cdb.QueryContext(ctx, terms, limit)
		if err != nil {
			return 0, nil, err
		}
	} else {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		matches, ids = s.db.Query(terms, limit)
	}
	out := make([]index.DocID, len(ids))
	for i, id := range ids {
		out[i] = index.DocID(id)
	}
	return matches, out, nil
}

func (s *dbSearcher) Fetch(ctx context.Context, id index.DocID) ([]string, error) {
	if cdb, ok := s.db.(ContextSearchableDatabase); ok {
		terms, err := cdb.FetchContext(ctx, int(id))
		if err != nil {
			return nil, err
		}
		return s.m.analyzeTerms(terms), nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.m.analyzeTerms(s.db.Fetch(int(id))), nil
}

// MatchCount implements classify.Prober under the build's context.
// A failed remote probe counts zero matches (the classifier treats the
// probe as matching nothing, exactly like a barren query).
func (s *dbSearcher) MatchCount(terms []string) int {
	matches, _, err := s.Query(s.ctx, terms, 0)
	if err != nil {
		return 0
	}
	return matches
}
