// Package sampling implements the two document-sampling algorithms the
// paper evaluates for content-summary construction (Section 5.2):
//
//   - QBS, query-based sampling as presented by Callan & Connell: random
//     single-word queries bootstrap the sample, then further queries are
//     drawn from the words of retrieved documents, four previously
//     unseen documents per query, until 300 documents are sampled (or
//     500 consecutive queries retrieve nothing new).
//   - FPS, focused probing as presented by Ipeirotis & Gravano: queries
//     derive from a hierarchical classifier's probes, so they are
//     associated with topics; probing recurses into a category's
//     subcategories when the category's probes generate enough matches,
//     and the sampler outputs a database classification as a by-product.
//
// Samplers interact with a database only through the Searcher
// interface — the number of matches for a query and the top-ranked
// documents — which is exactly what a remote, uncooperative web
// database exposes. The interface is context-aware and fallible,
// because the database is usually at the other end of a network:
// cancelling the context aborts a sampling run (and its in-flight
// probes), while transient per-call failures are tolerated — a failed
// query retrieves nothing and sampling moves on, mirroring how a
// metasearcher really behaves against a flaky node.
package sampling

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/zipf"
)

// Searcher is the query interface of an uncooperative database.
// Implementations backed by a network return errors for failed calls
// and honor context cancellation; in-process implementations may ignore
// the context and return nil errors.
type Searcher interface {
	// Query evaluates a conjunctive query, returning the total number
	// of matching documents and the top `limit` ranked matches.
	Query(ctx context.Context, terms []string, limit int) (matches int, top []index.DocID, err error)
	// Fetch returns the terms of one document.
	Fetch(ctx context.Context, id index.DocID) ([]string, error)
}

// IndexSearcher adapts an index.Index to Searcher.
type IndexSearcher struct {
	Ix *index.Index
}

// Query implements Searcher.
func (s IndexSearcher) Query(ctx context.Context, terms []string, limit int) (int, []index.DocID, error) {
	matches, top := s.Ix.Search(terms, limit)
	ids := make([]index.DocID, len(top))
	for i, r := range top {
		ids[i] = r.Doc
	}
	return matches, ids, nil
}

// Fetch implements Searcher.
func (s IndexSearcher) Fetch(ctx context.Context, id index.DocID) ([]string, error) {
	return s.Ix.Doc(id), nil
}

// MatchCount makes IndexSearcher usable as a classify.Prober too.
func (s IndexSearcher) MatchCount(terms []string) int { return s.Ix.MatchCount(terms) }

// Checkpoint records a Mandelbrot law fitted to the sample's
// rank/document-frequency curve when the sample had Size documents.
// The Appendix A frequency-estimation technique regresses these
// parameters against sample size.
type Checkpoint struct {
	Size int
	Law  zipf.Mandelbrot
}

// Sample is the outcome of a sampling run.
type Sample struct {
	// Docs holds the terms of each sampled document.
	Docs [][]string
	// QueryDF records, for every single-word query issued, the exact
	// number of matches the database reported — the word's true
	// document frequency.
	QueryDF map[string]int
	// ResampleDF holds the match counts of the dedicated sample–resample
	// probes (frequent sample words queried after sampling finished);
	// size estimation prefers these because sampling-phase query words
	// are self-selecting.
	ResampleDF map[string]int
	// Checkpoints are the Mandelbrot fits collected during sampling.
	Checkpoints []Checkpoint
	// Queries is the total number of queries issued.
	Queries int
}

// accumulator gathers retrieved documents, sample document frequencies,
// and periodic Mandelbrot fits.
type accumulator struct {
	sample     Sample
	seen       map[index.DocID]bool
	df         map[string]int
	vocab      []string // distinct sample words in first-seen order
	checkEvery int
	nextCheck  int

	// telemetry (all nil-safe)
	span    *telemetry.Span
	queries *telemetry.Counter
	fetched *telemetry.Counter
}

func newAccumulator(checkEvery int, span *telemetry.Span, reg *telemetry.Registry) *accumulator {
	if checkEvery <= 0 {
		checkEvery = 50
	}
	return &accumulator{
		seen:       make(map[index.DocID]bool),
		df:         make(map[string]int),
		checkEvery: checkEvery,
		nextCheck:  checkEvery,
		span:       span,
		queries:    reg.Counter("sampling_queries_total"),
		fetched:    reg.Counter("sampling_docs_fetched_total"),
	}
}

// add ingests newly retrieved documents, skipping ones already sampled,
// and returns how many were new. A document whose fetch fails is
// dropped (transient remote failure); fetches stop early once the
// context is done.
func (a *accumulator) add(ctx context.Context, db Searcher, ids []index.DocID, max int) int {
	added := 0
	for _, id := range ids {
		if added >= max {
			break
		}
		if a.seen[id] {
			continue
		}
		a.seen[id] = true
		a.fetched.Inc()
		doc, err := db.Fetch(ctx, id)
		if err != nil {
			a.span.Event("sampling.fetch_error",
				telemetry.Int("doc", int(id)), telemetry.String("error", err.Error()))
			if ctx.Err() != nil {
				return added
			}
			continue
		}
		owned := make([]string, len(doc))
		copy(owned, doc)
		a.sample.Docs = append(a.sample.Docs, owned)
		distinct := make(map[string]bool, len(doc))
		for _, w := range doc {
			if !distinct[w] {
				distinct[w] = true
				if a.df[w] == 0 {
					a.vocab = append(a.vocab, w)
				}
				a.df[w]++
			}
		}
		added++
		if len(a.sample.Docs) >= a.nextCheck {
			a.checkpoint()
			a.nextCheck += a.checkEvery
		}
	}
	return added
}

// checkpoint fits a Mandelbrot law to the current sample df curve.
// The balanced fit keeps the head of the curve faithful (Appendix A's
// estimates depend on extrapolating it).
func (a *accumulator) checkpoint() {
	law, err := zipf.FitCountsBalanced(a.df)
	if err != nil {
		return // too little data; skip this checkpoint
	}
	a.sample.Checkpoints = append(a.sample.Checkpoints, Checkpoint{
		Size: len(a.sample.Docs),
		Law:  law,
	})
	// One trace event per checkpoint round: the vocabulary-growth curve
	// of the sampling run (documents in, distinct words out).
	a.span.Event("sampling.round",
		telemetry.Int("docs", len(a.sample.Docs)),
		telemetry.Int("vocab", len(a.vocab)),
		telemetry.Int("queries", a.sample.Queries))
}

// finish finalizes the sample, ensuring a terminal checkpoint exists
// and issuing the sample–resample probes of Si & Callan: the match
// counts of a few frequent sample words, queried once sampling is done.
// Frequent words are the reliable resample anchors — rare probed words
// are self-selecting (their own query pulled their documents into the
// sample, so df ≈ sample df and the size estimate collapses to |S|).
// A failed resample probe is skipped (the estimator works with fewer).
func (a *accumulator) finish(ctx context.Context, db Searcher, resampleProbes int) *Sample {
	n := len(a.sample.Docs)
	if n > 0 && (len(a.sample.Checkpoints) == 0 ||
		a.sample.Checkpoints[len(a.sample.Checkpoints)-1].Size != n) {
		a.checkpoint()
	}
	if db != nil && resampleProbes > 0 && n > 0 {
		if a.sample.QueryDF == nil {
			a.sample.QueryDF = make(map[string]int)
		}
		if a.sample.ResampleDF == nil {
			a.sample.ResampleDF = make(map[string]int)
		}
		for _, w := range a.topWordsByDF(resampleProbes) {
			if ctx.Err() != nil {
				break
			}
			a.sample.Queries++
			a.queries.Inc()
			matches, _, err := db.Query(ctx, []string{w}, 0)
			if err != nil {
				continue
			}
			a.sample.QueryDF[w] = matches
			a.sample.ResampleDF[w] = matches
		}
	}
	return &a.sample
}

// topWordsByDF returns the n most document-frequent sample words
// (deterministically tie-broken by first-seen order).
func (a *accumulator) topWordsByDF(n int) []string {
	words := make([]string, len(a.vocab))
	copy(words, a.vocab)
	sort.SliceStable(words, func(i, j int) bool {
		return a.df[words[i]] > a.df[words[j]]
	})
	if n < len(words) {
		words = words[:n]
	}
	return words
}

// vocabulary returns the sample's distinct words in deterministic
// (first-seen) order. The returned slice must not be modified.
func (a *accumulator) vocabulary() []string { return a.vocab }

// drawUnusedWord picks a random sample word not yet used as a query.
func drawUnusedWord(vocab []string, used map[string]bool, rng *rand.Rand) (string, bool) {
	if len(vocab) == 0 {
		return "", false
	}
	for attempt := 0; attempt < 50; attempt++ {
		w := vocab[rng.Intn(len(vocab))]
		if !used[w] {
			return w, true
		}
	}
	// Fall back to a scan so exhaustion is detected deterministically.
	start := rng.Intn(len(vocab))
	for i := 0; i < len(vocab); i++ {
		w := vocab[(start+i)%len(vocab)]
		if !used[w] {
			return w, true
		}
	}
	return "", false
}
