package repro

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/freqest"
	"repro/internal/hierarchy"
	"repro/internal/pool"
	"repro/internal/resilience"
	"repro/internal/sampling"
	"repro/internal/selection"
	"repro/internal/summary"
	"repro/internal/telemetry"
)

// The paper splits the system into an offline phase (sample → classify
// → shrink; the λ weights are "computed offline", §3.2) and an online
// phase that only reads summaries (Figure 3). This file is that split,
// and the root package's one concurrency rule:
//
//   - Everything the online phase reads lives in one immutable store,
//     published through Metasearcher.state. A reader loads the pointer
//     once and takes no lock; what it loaded never changes under it.
//   - Metasearcher.mu serializes writers only, and only update takes
//     it. A writer builds the next store from the current one (copying
//     whatever it changes), and update publishes it together with the
//     cache-generation bump. An error anywhere before the publish
//     leaves the served store untouched.
//
// The publish precedes the bump, and cache loaders read the store
// inside the load (after the cache captured its generation), so an
// entry stamped with the new generation was computed from the new
// store.

// published is the Metasearcher's only mutable state (embedded).
type published struct {
	state    atomic.Pointer[store] // what every reader serves from; never nil
	mu       sync.Mutex            // writers only; taken by update alone
	training *classify.TrainingSet // classifier examples; touched only inside update
}

// store is one published state of the metasearcher. Nothing reachable
// from a published store is ever modified.
type store struct {
	// dbs holds every database the selection statistics cover. The
	// ones with a live handle are this process's search scope: a
	// cluster shard holds handles for its slice only, and a selected
	// database without one is another shard's (out of scope).
	dbs    []*registeredDB          // registration order
	byName map[string]*registeredDB // the same entries, by name

	// Set by deriveStore; a store that Train or AddDatabase published
	// has none of it and fails Select, Info and Save.
	built        bool
	trainingDocs int      // informational, for Save: classifier examples at build time
	lexicon      []string // QBS bootstrap words the summaries were sampled with
	cats         *core.CategorySummaries
	global       *summary.Summary // the root category summary
	// The selection input, fixed per build: adaptive selection reads
	// both summaries of every database.
	adaptive []*selection.DB
}

type registeredDB struct {
	name      string
	db        SearchableDatabase // nil: not queried by this process
	category  hierarchy.NodeID   // classification to use; -1 = probe
	fixedCat  bool
	unshrunk  *summary.Summary
	shrunk    *core.ShrunkSummary
	assigned  hierarchy.NodeID
	sizeEst   float64
	gamma     float64
	sampleLen int
	prov      *BuildTelemetry // how the summary was built (persisted)
}

// newStore is an unbuilt store over dbs.
func newStore(dbs []*registeredDB) *store {
	return &store{dbs: dbs, byName: indexByName(dbs)}
}

func indexByName(dbs []*registeredDB) map[string]*registeredDB {
	byName := make(map[string]*registeredDB, len(dbs))
	for _, r := range dbs {
		byName[r.name] = r
	}
	return byName
}

// withHandles returns a copy of st whose databases are dbs — the same
// summaries entry for entry, different live handles. Everything derived
// from the summaries carries over.
func (st *store) withHandles(dbs []*registeredDB) *store {
	next := *st
	next.dbs, next.byName = dbs, indexByName(dbs)
	return &next
}

// update is the only way the served store changes: fn runs with the
// writers' mutex held, derives the next store from the current one, and
// a nil error publishes it and stales both query-cache tiers.
func (m *Metasearcher) update(fn func(cur *store) (*store, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	next, err := fn(m.state.Load())
	if err != nil {
		return err
	}
	m.state.Store(next)
	m.InvalidateCaches()
	return nil
}

// seedLexicon resolves the QBS bootstrap words (called from inside
// update: it reads the training set).
func (m *Metasearcher) seedLexicon() []string {
	if m.opts.SeedLexicon != nil {
		return m.opts.SeedLexicon
	}
	// The built-in common-English list plus the most frequent
	// training-set words, which provably occur in on-topic text.
	return append(defaultLexicon(), m.training.TopWords(300)...)
}

// searcher adapts db for the samplers and the classifier. Remote probes
// issued through it carry span's trace on the wire, so a dbnode's
// sampling-time spans join it.
func (m *Metasearcher) searcher(ctx context.Context, span *telemetry.Span, db SearchableDatabase) *dbSearcher {
	return &dbSearcher{m: m, db: db, ctx: telemetry.ContextWithSpan(ctx, span)}
}

// sampleQBS draws a query-based sample of about docs documents.
func (m *Metasearcher) sampleQBS(s *dbSearcher, span *telemetry.Span, lexicon []string, docs int, seed int64) (*sampling.Sample, error) {
	return sampling.QBS(s.ctx, s, sampling.QBSConfig{
		TargetDocs:  docs,
		SeedLexicon: lexicon,
		Seed:        seed,
		Span:        span,
		Metrics:     m.reg,
	})
}

// summarizeSample turns a document sample into what the store keeps of
// it, on r (a copy not yet published): freqest.Summarize's refined
// content summary Ŝ(D), size estimate |D̂| and exponent γ — the same
// function the evaluation harness builds its summaries with — plus the
// build provenance.
func (m *Metasearcher) summarizeSample(r *registeredDB, sample *sampling.Sample) {
	r.unshrunk, r.sizeEst, r.gamma = freqest.Summarize(sample, true)
	r.sampleLen = r.unshrunk.SampleSize
	r.prov = &BuildTelemetry{SampleQueries: sample.Queries}
}

// deriveStore computes everything that is a function of the whole
// summary set: the category summaries, every database's shrunk summary
// (shrinkage ancestors share statistics, so one changed summary moves
// its siblings' too), the root summary, and the selection inputs. dbs
// are the caller's own copies with unshrunk summaries and categories
// set; called from inside update.
//
// Both passes are CPU-bound and fan out on GOMAXPROCS workers whatever
// Options.Parallelism says: the category aggregation per node
// (core.BuildCategorySummaries), the EM fits per database into their
// own slots. Neither changes the order of any float sum, so the store
// is bit-identical at any worker count.
func (m *Metasearcher) deriveStore(dbs []*registeredDB, lexicon []string, trainingDocs int, span *telemetry.Span) *store {
	st := newStore(dbs)
	st.built = true
	st.trainingDocs = trainingDocs
	st.lexicon = lexicon
	classified := make([]core.Classified, len(dbs))
	for i, r := range dbs {
		classified[i] = core.Classified{Name: r.name, Category: r.assigned, Sum: r.unshrunk}
	}
	st.cats = core.BuildCategorySummaries(m.tree, classified, core.SizeWeighted)
	st.global = st.cats.Summary(hierarchy.Root)
	st.adaptive = make([]*selection.DB, len(dbs))
	pool.ForEach(len(dbs), runtime.GOMAXPROCS(0), m.reg, func(i int) error {
		r := dbs[i]
		shrinkSpan := span.Child("shrink", telemetry.String("db", r.name))
		r.shrunk = core.Shrink(st.cats, classified[i], core.ShrinkOptions{
			Span:    shrinkSpan,
			Metrics: m.reg,
		})
		shrinkSpan.End(telemetry.Int("em_iterations", r.shrunk.EMIterations()))
		if r.prov != nil {
			// The EM just run is this summary's provenance (Load, which
			// prefers the persisted one, attaches it afterwards).
			r.prov = &BuildTelemetry{
				SampleQueries: r.prov.SampleQueries,
				EMIterations:  r.shrunk.EMIterations(),
				Lambdas:       r.shrunk.Lambdas(),
			}
		}
		st.adaptive[i] = &selection.DB{
			Name:     r.name,
			Unshrunk: r.unshrunk,
			Shrunk:   r.shrunk,
			Gamma:    r.gamma,
			Size:     int(r.sizeEst),
		}
		return nil
	})
	return st
}

// probeTargets derives a health sweep's target list from the registered
// databases: one per remote database, plus one per replica breaker.
func (st *store) probeTargets() []resilience.ProbeTarget {
	var targets []resilience.ProbeTarget
	for _, r := range st.dbs {
		if db, ok := r.db.(*ReplicatedDatabase); ok {
			targets = append(targets, resilience.ProbeTarget{Name: r.name, Ping: db.Ping})
			targets = append(targets, db.ProbeTargets()...)
		}
	}
	return targets
}
