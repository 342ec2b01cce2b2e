package repro

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/freqest"
	"repro/internal/hierarchy"
	"repro/internal/replica"
	"repro/internal/resilience"
	"repro/internal/sampling"
	"repro/internal/selection"
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
	// dbs holds every database the selection statistics cover, in
	// registration order, which is the derivation's order. The ones with
	// a live handle are this process's search scope: a cluster shard
	// holds handles for its slice only, and a selected database without
	// one is another shard's (out of scope).
	dbs    []*registeredDB
	byName map[string]int // name → index in dbs (and in derived)

	// Set by deriveStore; a store that Train or AddDatabase published
	// has none of it and fails Select, Info and Save.
	trainingDocs int      // informational, for Save: classifier examples at build time
	lexicon      []string // QBS bootstrap words the summaries were sampled with
	// derived is the offline derivation over dbs, in the same order:
	// category summaries, root summary, shrunk summaries (λ and EM
	// iterations with them) and Figure 3's inputs. nil until built.
	derived *selection.Derived
}

// registeredDB is one database's record: its live handle, how it was
// registered, and its input to the offline derivation. What the
// derivation computes from that input is read from store.derived at the
// record's index, never kept here.
type registeredDB struct {
	db       SearchableDatabase // nil: not queried by this process
	category hierarchy.NodeID   // category registered under; -1 = classify by probing
	// src is the name, the assigned category, Ŝ(D) (with its |S|), |D̂|
	// and γ: set by sampling or Load, zero-valued but for the name
	// until the first build.
	src           selection.Source
	sampleQueries int // queries the sampler sent: the provenance Ŝ(D) cannot tell
}

// newStore is an unbuilt store over dbs.
func newStore(dbs []*registeredDB) *store {
	byName := make(map[string]int, len(dbs))
	for i, r := range dbs {
		byName[r.src.Name] = i
	}
	return &store{dbs: dbs, byName: byName}
}

// lookup returns name's record and its index in dbs, or nil and -1.
func (st *store) lookup(name string) (*registeredDB, int) {
	i, ok := st.byName[name]
	if !ok {
		return nil, -1
	}
	return st.dbs[i], i
}

// withHandles returns a copy of st whose databases are dbs — the same
// records in the same order, different live handles. Everything derived
// from the summaries carries over.
func (st *store) withHandles(dbs []*registeredDB) *store {
	next := *st
	next.dbs = dbs
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

// summarizeSample fills r's derivation input from a document sample
// (r is a copy not yet published): freqest.Summarize's refined content
// summary Ŝ(D), size estimate |D̂| and exponent γ — the same function the
// evaluation harness builds its summaries with — plus the number of
// sampling queries.
func (m *Metasearcher) summarizeSample(r *registeredDB, sample *sampling.Sample) {
	r.src.Sum, r.src.Size, r.src.Gamma = freqest.Summarize(sample, true)
	r.sampleQueries = sample.Queries
}

// deriveStore builds a store over dbs (records whose Source is set;
// called from inside update) by running selection.Derive over the whole
// summary set: shrinkage ancestors share statistics, so one changed
// summary moves its siblings' too. The records are not modified.
func (m *Metasearcher) deriveStore(dbs []*registeredDB, lexicon []string, trainingDocs int, span *telemetry.Span) *store {
	st := newStore(dbs)
	st.trainingDocs = trainingDocs
	st.lexicon = lexicon
	sources := make([]selection.Source, len(dbs))
	for i, r := range dbs {
		sources[i] = r.src
	}
	st.derived = selection.Derive(m.tree, sources, core.SizeWeighted, span, m.reg)
	return st
}

// probeTargets derives a health sweep's target list from the registered
// databases: one per remote database, plus one per replica breaker.
func (st *store) probeTargets() []resilience.ProbeTarget {
	var targets []resilience.ProbeTarget
	for _, r := range st.dbs {
		if db, ok := r.db.(*replica.Database); ok {
			targets = append(targets, resilience.ProbeTarget{Name: r.src.Name, Ping: db.Ping})
			targets = append(targets, db.ProbeTargets()...)
		}
	}
	return targets
}
