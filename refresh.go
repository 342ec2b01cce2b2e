package repro

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/summary"
	"repro/internal/telemetry"
)

// This file implements refresh.Target: the hooks the background
// summary-refresh manager (internal/refresh) uses to keep content
// summaries tracking the live collections. The split of labor: the
// manager owns drift decisions and observability, its owner the schedule
// (clock.Every); the metasearcher owns sampling and the swap, because
// only it knows the build pipeline and how a new summary store is
// published (store.go).

// RefreshableDatabases lists the databases the refresh manager may
// re-sample: those this process holds a live handle for (a cluster
// shard holds only its slice's — refreshing another shard's nodes would
// fork the collection-wide statistics the cluster merge identity rests
// on), sorted by name.
func (m *Metasearcher) RefreshableDatabases() []string {
	var out []string
	for _, r := range m.state.Load().dbs {
		if r.db != nil {
			out = append(out, r.src.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ResampleSummary returns a database's stored unshrunk content summary
// and a fresh one: a sample of about docs documents drawn from the live
// database and summarized, touching no stored state — the cheap probe
// the drift check compares against the stored one. Both are read from
// one store, and summaries are immutable once built (a rebuild
// publishes a new one), so they are safe to read indefinitely. The
// sampler's seed is derived from the database name, distinct from the
// build pipeline's seed, so the resample is an independent draw from
// the node's contents while staying deterministic run to run.
func (m *Metasearcher) ResampleSummary(ctx context.Context, name string, docs int) (stored, fresh *summary.Summary, err error) {
	st := m.state.Load()
	r, _ := st.lookup(name)
	if r == nil {
		return nil, nil, fmt.Errorf("repro: unknown database %q", name)
	}
	if r.db == nil {
		return nil, nil, fmt.Errorf("repro: database %q has no live connection", name)
	}
	if st.derived == nil {
		return nil, nil, errors.New("repro: BuildSummaries has not been run")
	}
	if docs <= 0 {
		docs = 50
	}
	span := m.tracer.Span("refresh.resample",
		telemetry.String("db", name), telemetry.Int("docs", docs))
	defer span.End()
	sample, err := m.sampleQBS(m.searcher(ctx, span, r.db), span, st.lexicon, docs, refreshSeed(m.opts.Seed, name))
	if err != nil {
		return nil, nil, fmt.Errorf("resampling %s: %w", name, err)
	}
	return r.src.Sum, summary.FromSample(sample.Docs), nil
}

// RebuildSummary re-samples one database at full build size and swaps
// the result into the serving state: the node's unshrunk summary is
// replaced and everything derived from the summary set is recomputed
// (deriveStore) into a new store, published with the cache-generation
// bump. Queries keep serving from the old store until then — the
// sampling, the slow, latency-bound part, blocks only other writers —
// and a query sees either the old store or the new one whole, never a
// mixture of old and new statistics. A rebuild whose ctx is cancelled
// before the swap publishes nothing. The database keeps its assigned
// category: contents drift, classification is re-probed only by a full
// offline rebuild.
func (m *Metasearcher) RebuildSummary(ctx context.Context, name string) error {
	return m.update(func(cur *store) (*store, error) {
		if cur.derived == nil {
			return nil, errors.New("repro: BuildSummaries has not been run")
		}
		old, idx := cur.lookup(name)
		if old == nil {
			return nil, fmt.Errorf("repro: unknown database %q", name)
		}
		if old.db == nil {
			return nil, fmt.Errorf("repro: database %q has no live connection", name)
		}

		t0 := time.Now()
		span := m.tracer.Span("refresh.rebuild", telemetry.String("db", name))
		defer span.End()
		sample, err := m.sampleQBS(m.searcher(ctx, span, old.db), span, cur.lexicon, m.opts.SampleSize, refreshSeed(m.opts.Seed+int64(idx), name))
		if err == nil {
			// The sampler ends a cancelled resample-probe round early and
			// returns what it has; a rebuild cut short must publish nothing.
			err = ctx.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("rebuild sampling %s: %w", name, err)
		}
		r := *old
		m.summarizeSample(&r, sample)
		dbs := append([]*registeredDB(nil), cur.dbs...)
		dbs[idx] = &r
		st := m.deriveStore(dbs, cur.lexicon, cur.trainingDocs, nil)
		m.logInfo("summary rebuilt after drift",
			"db", name, "docs", len(sample.Docs), "vocab", r.src.Sum.Len(),
			"elapsed", time.Since(t0))
		return st, nil
	})
}

// refreshSeed derives a refresh sampler's seed: the configured base
// offset by a hash of the database name, so refresh draws differ from
// the build pipeline's (seeded base+index) while staying deterministic.
func refreshSeed(base int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base + int64(h.Sum64()&0x7fffffffffff) + 1
}
