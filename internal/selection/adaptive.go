package selection

import (
	"math"
	"slices"

	"repro/internal/summary"
	"repro/internal/telemetry"
)

// DB is one database as seen by the adaptive algorithm: both candidate
// content summaries plus the statistics the uncertainty model needs.
type DB struct {
	Name string
	// Unshrunk is the sample-derived summary Ŝ(D); its SampleSize and
	// per-word SampleDF are the s_k and |S| of Section 4.
	Unshrunk *summary.Summary
	// Shrunk is the shrinkage-based summary R̂(D); nil disables
	// shrinkage for this database.
	Shrunk summary.View
	// Gamma is the database's frequency power-law exponent γ
	// ("approximately c·f^γ words have frequency f", Appendix B),
	// derivable from the Appendix A fit as γ = 1/α − 1. Zero selects
	// the pure-Zipf default −2.
	Gamma float64
	// Size is the estimated database size |D| the uncertainty model
	// uses (Equation 3). It is always the sample–resample estimate,
	// even when the scoring summary keeps raw sample frequencies; zero
	// falls back to Unshrunk's document count.
	Size int
	// table is the offline half of Appendix B's posterior for this
	// database, built by Derive; nil (a DB built by hand) makes every
	// query build it into its own scratch.
	table *dfTable
}

// size returns the |D| the uncertainty model should use.
func (db *DB) size() int {
	if db.Size > 0 {
		return db.Size
	}
	return int(db.Unshrunk.NumDocs)
}

// gamma returns the power-law exponent γ the uncertainty model should
// use.
func (db *DB) gamma() float64 {
	if db.Gamma == 0 {
		return -2
	}
	return db.Gamma
}

const (
	// gridMax bounds the support grid of each word's document-frequency
	// distribution; larger databases use a geometric grid.
	gridMax = 256
	// absentPrior is the prior weight of d = 0 (the query word absent
	// from the database altogether) relative to d = 1, for words that
	// never appeared in the sample: in a typical collection the words
	// absent from a database outnumber its singletons.
	absentPrior = 3.0
)

// Adaptive implements the Figure 3 algorithm: for each database it
// computes the uncertainty of the selection score under the posterior
// distribution of the query words' true document frequencies
// (Appendix B) and uses the shrunk summary only when the score's
// standard deviation exceeds its mean. The decision is a pure function
// of the summaries, the query and the base scorer.
type Adaptive struct {
	Base Scorer
	// Metrics receives the adaptive_* series; may be nil.
	Metrics *telemetry.Registry
}

// ScoreCVBuckets is the adaptive_score_cv histogram's layout: the
// score's coefficient of variation σ/μ, with μ net of the scorer's
// baseline as the rule takes it, dense around 1, where Figure 3 switches
// to the shrunk summary.
var ScoreCVBuckets = []float64{0.01, 0.03, 0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2.5, 5, 10, 100}

// Decision records the outcome of the content-summary selection step
// for one database.
type Decision struct {
	// Shrinkage reports whether the shrunk summary was chosen.
	Shrinkage bool
	// Mean and StdDev describe the score distribution.
	Mean, StdDev float64
	// Baseline is the scorer's information-free score, which the rule
	// subtracts from Mean before comparing (an additive scorer's belief
	// floor; 0 for a product scorer).
	Baseline float64
	// Score is s(q, D) under the chosen summary view — the score the
	// final ranking used (filled by Rank, zero after Choose alone).
	Score float64
}

// Choose runs the "Content Summary Selection" step for every database,
// returning the chosen view and the decision diagnostics. ctx must be
// built over the unshrunk summaries (the information available before
// any choice is made).
func (a *Adaptive) Choose(q []string, dbs []*DB, ctx *Context) ([]summary.View, []Decision) {
	applied := a.Metrics.Counter("adaptive_shrinkage_applied_total")
	skipped := a.Metrics.Counter("adaptive_shrinkage_skipped_total")
	scoreCV := a.Metrics.Histogram("adaptive_score_cv", ScoreCVBuckets)
	views := make([]summary.View, len(dbs))
	decisions := make([]Decision, len(dbs))
	anyShrunk := false
	words := UniqueWords(q)
	// One set of distribution buffers serves every seen word of every
	// database in turn.
	var dist dfDist
	for i, db := range dbs {
		d := a.decide(q, words, db, ctx, &dist)
		decisions[i] = d
		if info := d.Mean - d.Baseline; info > 0 {
			// Figure 3's signal, live: the ratio its rule compares with 1.
			// A score distribution collapsed onto the baseline has none.
			scoreCV.Observe(d.StdDev / info)
		}
		if d.Shrinkage && db.Shrunk != nil {
			views[i] = db.Shrunk
		} else {
			views[i] = db.Unshrunk
		}
		if d.Shrinkage {
			applied.Inc()
			anyShrunk = true
		} else {
			skipped.Inc()
		}
	}
	// Per-query application rate (the paper's adaptive criterion fires
	// per query-database pair; operators also want "how many queries saw
	// shrinkage at all").
	a.Metrics.Counter("adaptive_queries_total").Inc()
	if anyShrunk {
		a.Metrics.Counter("adaptive_queries_shrunk_total").Inc()
	}
	return views, decisions
}

// Rank performs the complete Figure 3 algorithm: choose a summary per
// database, rebuild the corpus context over the chosen summaries, and
// rank with the base scorer.
func (a *Adaptive) Rank(q []string, dbs []*DB, global summary.View) ([]Ranked, []Decision) {
	unshrunk := make([]Entry, len(dbs))
	for i, db := range dbs {
		unshrunk[i] = Entry{Name: db.Name, View: db.Unshrunk}
	}
	ctx0 := NewContext(q, unshrunk, global)
	views, decisions := a.Choose(q, dbs, ctx0)

	chosen := make([]Entry, len(dbs))
	for i, v := range views {
		chosen[i] = Entry{Name: dbs[i].Name, View: v}
	}
	ctx1 := NewContext(q, chosen, global)
	ranked, scores := RankWithScores(a.Base, q, chosen, ctx1)
	for i := range decisions {
		decisions[i].Score = scores[i]
	}
	return ranked, decisions
}

// decide computes the score distribution's mean and standard deviation
// for one database and applies the std > mean rule. The query words'
// document frequencies are independent under the posterior and every
// scorer separates into per-word terms (Scorer.Term), so the score's
// moments follow exactly from each term's mean and variance over its
// word's distribution. words are q's unique words. A word the sample
// never saw reads the database's tabulated posterior as it stands; dist
// is scratch for the posterior of each word the sample saw, formed from
// the tabulated grid.
func (a *Adaptive) decide(q, words []string, db *DB, ctx *Context, dist *dfDist) Decision {
	n := db.size()
	if n < 1 || len(words) == 0 || db.Shrunk == nil {
		return Decision{}
	}
	table := db.table
	if table == nil {
		// A DB built by hand, not by Derive: build this query's table
		// into scratch.
		if dist.scratch == nil {
			dist.scratch = &dfTable{}
		}
		table = dist.scratch
		table.build(n, db.Unshrunk.SampleSize, db.gamma())
	}
	additive := isAdditive(a.Base)
	// sum adds the terms' means and variances (an additive scorer);
	// prod and logRel multiply the means and accumulate
	// log Π(1 + Var[t]/E[t]²) = log(E[s²]/E[s]²) (a product scorer).
	var sumMean, sumVar, logRel float64
	prod := 1.0
	for _, w := range words {
		post := table.posterior(db.Unshrunk.SampleDF(w), dist)
		m, v := post.moments(a.Base.Term(w, db.Unshrunk, ctx))
		sumMean += m
		sumVar += v
		prod *= m
		if m > 0 {
			logRel += math.Log1p(v / m / m)
		}
	}
	var mean, std float64
	if additive {
		k := float64(len(words))
		mean, std = sumMean/k, math.Sqrt(sumVar)/k
	} else {
		// A long query's product score is minuscule (1e-80 for 25
		// words of p̂ ≈ 0.001), so the deviation is formed relative to the
		// mean, never as E[s²] − E[s]². The empty query's score is
		// the product's constant factor.
		mean = a.Base.Score(nil, db.Unshrunk, ctx) * prod
		std = mean * math.Sqrt(math.Expm1(logRel))
	}
	// Figure 3's rule: shrink when the standard deviation of the score
	// distribution exceeds its mean. The rule must be applied net of
	// the scorer's information-free baseline:
	//
	//   - For a product scorer the baseline is a multiplicative
	//     constant (the smoothing-only product Π(1−λ)p̂G, say), under
	//     which std > mean is already scale-invariant: the raw rule.
	//   - For an additive scorer the baseline (a 0.4 belief floor, say)
	//     enters additively, so it is subtracted first — otherwise
	//     scores bounded below by it could never satisfy the rule at
	//     all.
	//
	// A distribution collapsed onto the baseline itself (every
	// d1..dn combination yields the default score) means the unshrunk
	// summary cannot discriminate the database for this query at all —
	// maximum uncertainty — so shrinkage applies.
	baseline := 0.0
	if additive {
		baseline = a.Base.DefaultScore(q, db.Unshrunk, ctx)
	}
	info := mean - baseline
	uncertain := std > info
	if std == 0 && info <= 0 {
		uncertain = true
	}
	return Decision{Shrinkage: uncertain, Mean: mean, StdDev: std, Baseline: baseline}
}

// AdditiveBaseline is implemented by scorers whose score is the mean of
// their per-word terms rather than the terms' product, so that the
// default score is an additive offset carrying no query evidence (a
// belief floor); the adaptive rule adds the terms' moments instead of
// multiplying them and subtracts the offset before comparing std
// against mean.
type AdditiveBaseline interface {
	AdditiveBaseline() bool
}

func isAdditive(s Scorer) bool {
	ab, ok := s.(AdditiveBaseline)
	return ok && ab.AdditiveBaseline()
}

// dfTable is the part of Appendix B's posterior that depends only on
// the database's (|D̂|, |S|, γ), not on the query word: the support grid,
// the logarithms the binomial likelihood and the power-law prior take at
// each of its points, and the whole posterior of a word the sample never
// saw (s_k = 0). Derive builds one per database; a query then forms a
// seen word's posterior from it with one exp per point (dfDist.fill).
// Read-only once built, so any number of queries share it.
type dfTable struct {
	// n and sampleSize are the statistics the table was built for,
	// sampleSize as given (fill caps it at n).
	n, sampleSize int
	// ds is the support grid over d = 0..n; slot 0 is the d = 0 point,
	// in a posterior's view only for words the sample never saw. frac,
	// logFrac, log1m and prior hold d/n, log(d/n), log(1−d/n) and the
	// prior's γ·log d + log Δd at each point (the interval a point
	// stands for is the gap to its predecessor); slot 0 of logFrac,
	// log1m and prior is unused.
	ds                          []int
	frac, logFrac, log1m, prior []float64
	// unseen is the posterior of every word with s_k = 0.
	unseen dfDist
}

// newDFTable tabulates the posterior of a database of n documents
// sampled by sampleSize under exponent gamma.
func newDFTable(n, sampleSize int, gamma float64) *dfTable {
	t := &dfTable{}
	t.build(n, sampleSize, gamma)
	return t
}

// build (re)tabulates t in its own buffers.
func (t *dfTable) build(n, sampleSize int, gamma float64) {
	t.n, t.sampleSize = n, sampleSize
	// Support grid over d = 1..n, after the d = 0 slot.
	ds := append(slices.Grow(t.ds[:0], min(n, gridMax+1)+1), 0)
	if n <= gridMax {
		for v := 1; v <= n; v++ {
			ds = append(ds, v)
		}
	} else {
		// Geometric grid: exact low values, then multiplicative steps.
		ratio := math.Pow(float64(n), 1/float64(gridMax-1))
		if ratio < 1.0001 {
			ratio = 1.0001
		}
		prev := 0
		x := 1.0
		for prev < n {
			v := int(x)
			if v <= prev {
				v = prev + 1
			}
			if v > n {
				v = n
			}
			ds = append(ds, v)
			prev = v
			x *= ratio
		}
	}
	t.ds = ds
	t.frac = sized(t.frac, len(ds))
	t.logFrac = sized(t.logFrac, len(ds))
	t.log1m = sized(t.log1m, len(ds))
	t.prior = sized(t.prior, len(ds))
	t.frac[0] = 0
	fn := float64(n)
	for i := 1; i < len(ds); i++ {
		fd := float64(ds[i])
		frac := fd / fn
		t.frac[i] = frac
		t.logFrac[i] = math.Log(frac)
		t.log1m[i] = math.Log(1 - frac)
		t.prior[i] = gamma*math.Log(fd) + math.Log(float64(ds[i]-ds[i-1]))
	}
	t.unseen.fill(t, 0)
}

// posterior returns the posterior of a word the sample saw in sk
// documents: the tabulated one as it stands for sk = 0, otherwise one
// formed in scratch.
func (t *dfTable) posterior(sk int, scratch *dfDist) *dfDist {
	if sk == 0 {
		return &t.unseen
	}
	scratch.fill(t, sk)
	return scratch
}

// sized returns buf resized to n elements, reusing its storage when it
// is large enough.
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// dfDist is the posterior distribution of a query word's true document
// frequency d in a database of n documents, given that the word
// appeared in sk of the |S| sample documents (Equation 3): the binomial
// sampling likelihood times the power-law prior p(d) ∝ d^γ, evaluated
// on a dfTable's support grid with interval weights.
type dfDist struct {
	// ds is the support, frac each point's d/n and pr its probability;
	// pr sums to 1. ds and frac are views of the table's grid.
	ds   []int
	frac []float64
	pr   []float64
	// prBuf is the buffer pr is a view of, kept so fill can reuse it:
	// Choose forms a posterior for each seen word of each database, one
	// at a time.
	prBuf []float64
	// scratch is the table decide builds for a database without one.
	scratch *dfTable
}

// fill forms d from t for a word the sample saw in sk documents, in d's
// own buffer: the likelihood's logarithms and the prior are read from
// the table, so each point costs one exp. Every float operation runs in
// the order the untabulated computation took, so the result is the same
// bit for bit.
func (d *dfDist) fill(t *dfTable, sk int) {
	// Log-density at each grid point, held in pr until normalized below.
	lps := append(slices.Grow(d.prBuf[:0], len(t.ds)), math.Inf(-1))
	maxLP := math.Inf(-1)
	fs := float64(min(t.sampleSize, t.n))
	fsk := float64(sk)
	for i := 1; i < len(t.ds); i++ {
		var lp float64
		if sk > 0 {
			lp += fsk * t.logFrac[i]
		}
		if fs-fsk > 0 {
			if t.frac[i] >= 1 {
				// d = n with sk < |S| is impossible.
				lp = math.Inf(-1)
			} else {
				lp += (fs - fsk) * t.log1m[i]
			}
		}
		if !math.IsInf(lp, -1) {
			lp += t.prior[i]
		}
		lps = append(lps, lp)
		if lp > maxLP {
			maxLP = lp
		}
	}
	d.prBuf = lps
	// A word never seen in the sample may be absent from the database
	// altogether: give d = 0 prior mass proportional to d = 1's density
	// (its binomial miss-likelihood is exactly 1).
	lo := 1
	if sk == 0 && absentPrior > 0 && len(t.ds) > 1 && !math.IsInf(lps[1], -1) {
		lo = 0
		lps[0] = lps[1] + math.Log(absentPrior)
		if lps[0] > maxLP {
			maxLP = lps[0]
		}
	}
	d.ds, d.frac, d.pr = t.ds[lo:], t.frac[lo:], lps[lo:]
	var sum float64
	for i, lp := range d.pr {
		var p float64
		if !math.IsInf(lp, -1) {
			p = math.Exp(lp - maxLP)
		}
		sum += p
		d.pr[i] = p
	}
	if sum <= 0 {
		// Degenerate; fall back to uniform.
		for i := range d.pr {
			d.pr[i] = 1 / float64(len(d.pr))
		}
		return
	}
	inv := 1 / sum
	for i := range d.pr {
		d.pr[i] *= inv
	}
}

// moments returns the mean and variance of term(d/n) over the
// distribution. The weighted running update keeps the variance of a
// constant term exactly zero — the collapsed case of the adaptive rule.
func (d *dfDist) moments(term func(p float64) float64) (mean, variance float64) {
	var sum, m2 float64
	for i, pr := range d.pr {
		if pr == 0 {
			continue
		}
		t := term(d.frac[i])
		sum += pr
		delta := t - mean
		mean += delta * (pr / sum)
		m2 += pr * delta * (t - mean)
	}
	return mean, m2 / sum
}
