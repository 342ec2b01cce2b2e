package selection

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/stats"
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
}

// size returns the |D| the uncertainty model should use.
func (db *DB) size() int {
	if db.Size > 0 {
		return db.Size
	}
	return int(db.Unshrunk.NumDocs)
}

// AdaptiveOptions tunes the Monte-Carlo score-distribution estimation.
type AdaptiveOptions struct {
	// MaxCombos caps the number of random d1..dn combinations examined
	// per database (default 400; the paper reports convergence "after
	// examining just a few hundred").
	MaxCombos int
	// RelTol is the relative mean/stddev stability required to stop
	// early (default 0.02).
	RelTol float64
	// Seed drives the Monte-Carlo draws.
	Seed int64
	// Span receives one adaptive.decide trace event per database
	// (score mean/σ, combinations examined, the shrink-or-not verdict);
	// Metrics receives the adaptive_* counters. Both may be nil.
	Span    *telemetry.Span
	Metrics *telemetry.Registry
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.MaxCombos == 0 {
		o.MaxCombos = 400
	}
	if o.RelTol == 0 {
		o.RelTol = 0.02
	}
	return o
}

const (
	// mcBatch is how many combinations are drawn between convergence
	// checks.
	mcBatch = 50
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
// estimates the uncertainty of the selection score under the posterior
// distribution of the query words' true document frequencies
// (Appendix B) and uses the shrunk summary only when the score's
// standard deviation exceeds its mean.
type Adaptive struct {
	Base Scorer
	Opts AdaptiveOptions
}

// Decision records the outcome of the content-summary selection step
// for one database.
type Decision struct {
	// Shrinkage reports whether the shrunk summary was chosen.
	Shrinkage bool
	// Mean and StdDev describe the estimated score distribution.
	Mean, StdDev float64
	// Combos is the number of d1..dn combinations examined.
	Combos int
	// Score is s(q, D) under the chosen summary view — the score the
	// final ranking used (filled by Rank, zero after Choose alone).
	Score float64
}

// Choose runs the "Content Summary Selection" step for every database,
// returning the chosen view and the decision diagnostics. ctx must be
// built over the unshrunk summaries (the information available before
// any choice is made).
func (a *Adaptive) Choose(q []string, dbs []*DB, ctx *Context) ([]summary.View, []Decision) {
	opts := a.Opts.withDefaults()
	applied := opts.Metrics.Counter("adaptive_shrinkage_applied_total")
	skipped := opts.Metrics.Counter("adaptive_shrinkage_skipped_total")
	mcSamples := opts.Metrics.Counter("adaptive_mc_samples_total")
	views := make([]summary.View, len(dbs))
	decisions := make([]Decision, len(dbs))
	anyShrunk := false
	// One set of distribution buffers serves every database in turn.
	words := UniqueWords(q)
	dists := make([]dfDist, len(words))
	for i, db := range dbs {
		d := a.decide(q, words, db, ctx, opts, int64(i), dists)
		decisions[i] = d
		if d.Shrinkage && db.Shrunk != nil {
			views[i] = db.Shrunk
		} else {
			views[i] = db.Unshrunk
		}
		mcSamples.Add(int64(d.Combos))
		if d.Shrinkage {
			applied.Inc()
			anyShrunk = true
		} else {
			skipped.Inc()
		}
		opts.Span.Event("adaptive.decide",
			telemetry.String("db", db.Name),
			telemetry.Float("mean", d.Mean),
			telemetry.Float("stddev", d.StdDev),
			telemetry.Int("combos", d.Combos),
			telemetry.Bool("shrinkage", d.Shrinkage))
	}
	// Per-query application rate (the paper's adaptive criterion fires
	// per query-database pair; operators also want "how many queries saw
	// shrinkage at all").
	opts.Metrics.Counter("adaptive_queries_total").Inc()
	if anyShrunk {
		opts.Metrics.Counter("adaptive_queries_shrunk_total").Inc()
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

// decide estimates the score distribution of one database and applies
// the std > mean rule. words are q's unique words; dists is scratch,
// one distribution per word, rebuilt here.
func (a *Adaptive) decide(q, words []string, db *DB, ctx *Context, opts AdaptiveOptions, stream int64, dists []dfDist) Decision {
	n := db.size()
	if n < 1 || len(words) == 0 || db.Shrunk == nil {
		return Decision{}
	}
	gamma := db.Gamma
	if gamma == 0 {
		gamma = -2
	}
	for i, w := range words {
		dists[i].fill(n, db.Unshrunk.SampleSize, db.Unshrunk.SampleDF(w), gamma, gridMax, absentPrior)
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ int64(uint64(stream)*0x9e3779b97f4a7c15)))
	over := &overrideView{base: db.Unshrunk, p: make(map[string]float64, len(words))}
	var welford stats.Welford
	prevMean, prevStd := math.Inf(1), math.Inf(1)
	combos := 0
	for combos < opts.MaxCombos {
		for b := 0; b < mcBatch && combos < opts.MaxCombos; b++ {
			for i, w := range words {
				dk := dists[i].sample(rng)
				over.p[w] = float64(dk) / float64(n)
			}
			welford.Add(a.Base.Score(q, over, ctx))
			combos++
		}
		mean, std := welford.Mean(), welford.StdDev()
		if relClose(mean, prevMean, opts.RelTol) && relClose(std, prevStd, opts.RelTol) {
			break
		}
		prevMean, prevStd = mean, std
	}
	mean, std := welford.Mean(), welford.StdDev()
	// Figure 3's rule: shrink when the standard deviation of the score
	// distribution exceeds its mean. The rule must be applied net of
	// the scorer's information-free baseline:
	//
	//   - For product scorers (bGlOSS, LM) the baseline is a
	//     multiplicative constant (1 and Π(1−λ)p̂G respectively), under
	//     which std > mean is already scale-invariant: the raw rule.
	//   - For CORI the baseline 0.4 enters additively, so it is
	//     subtracted first — otherwise scores bounded below by 0.4
	//     could never satisfy the rule at all.
	//
	// A distribution collapsed onto the baseline itself (every sampled
	// d1..dn combination yields the default score) means the unshrunk
	// summary cannot discriminate the database for this query at all —
	// maximum uncertainty — so shrinkage applies.
	baseline := 0.0
	if ab, ok := a.Base.(AdditiveBaseline); ok && ab.AdditiveBaseline() {
		baseline = a.Base.DefaultScore(q, db.Unshrunk, ctx)
	}
	info := mean - baseline
	uncertain := std > info
	if std == 0 && info <= 0 {
		uncertain = true
	}
	return Decision{Shrinkage: uncertain, Mean: mean, StdDev: std, Combos: combos}
}

// AdditiveBaseline is implemented by scorers whose default score is an
// additive offset carrying no query evidence (CORI's 0.4 belief floor);
// the adaptive rule subtracts it before comparing std against mean.
type AdditiveBaseline interface {
	AdditiveBaseline() bool
}

func relClose(a, b, tol float64) bool {
	if math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= tol*(math.Abs(a)+1e-9)
}

// dfDist is the posterior distribution of a query word's true document
// frequency d in a database of n documents, given that the word
// appeared in sk of the |S| sample documents (Equation 3): the binomial
// sampling likelihood times the power-law prior p(d) ∝ d^γ, evaluated
// on a (possibly geometric) support grid with interval weights.
type dfDist struct {
	ds  []int
	cdf []float64
	// The buffers ds and cdf are views of; slot 0 is the d = 0 point, in
	// view only for words the sample never saw. Kept so fill can reuse
	// them: Choose builds |q| distributions per database, one database
	// at a time.
	dsBuf  []int
	cdfBuf []float64
}

func newDFDist(n, sampleSize, sk int, gamma float64, gridMax int, absentPrior float64) *dfDist {
	d := &dfDist{}
	d.fill(n, sampleSize, sk, gamma, gridMax, absentPrior)
	return d
}

// fill rebuilds d for one (word, database) pair in its own buffers.
func (d *dfDist) fill(n, sampleSize, sk int, gamma float64, gridMax int, absentPrior float64) {
	if sampleSize > n {
		sampleSize = n
	}
	// Support grid over d = 1..n, after the d = 0 slot.
	ds := append(d.dsBuf[:0], 0)
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
	// Log-density at each grid point (the interval a point stands for is
	// the gap to its predecessor), held in cdf until normalized below.
	lps := append(d.cdfBuf[:0], math.Inf(-1))
	maxLP := math.Inf(-1)
	fn := float64(n)
	fs := float64(sampleSize)
	fsk := float64(sk)
	for i := 1; i < len(ds); i++ {
		fd := float64(ds[i])
		frac := fd / fn
		var lp float64
		if sk > 0 {
			lp += fsk * math.Log(frac)
		}
		if fs-fsk > 0 {
			if frac >= 1 {
				// d = n with sk < |S| is impossible.
				lp = math.Inf(-1)
			} else {
				lp += (fs - fsk) * math.Log(1-frac)
			}
		}
		if !math.IsInf(lp, -1) {
			lp += gamma*math.Log(fd) + math.Log(float64(ds[i]-ds[i-1]))
		}
		lps = append(lps, lp)
		if lp > maxLP {
			maxLP = lp
		}
	}
	d.dsBuf, d.cdfBuf = ds, lps
	// A word never seen in the sample may be absent from the database
	// altogether: give d = 0 prior mass proportional to d = 1's density
	// (its binomial miss-likelihood is exactly 1).
	lo := 1
	if sk == 0 && absentPrior > 0 && len(ds) > 1 && !math.IsInf(lps[1], -1) {
		lo = 0
		lps[0] = lps[1] + math.Log(absentPrior)
		if lps[0] > maxLP {
			maxLP = lps[0]
		}
	}
	d.ds, d.cdf = ds[lo:], lps[lo:]
	var sum float64
	for i, lp := range d.cdf {
		var p float64
		if !math.IsInf(lp, -1) {
			p = math.Exp(lp - maxLP)
		}
		sum += p
		d.cdf[i] = sum
	}
	if sum <= 0 {
		// Degenerate; fall back to uniform.
		for i := range d.cdf {
			d.cdf[i] = float64(i+1) / float64(len(d.cdf))
		}
		return
	}
	inv := 1 / sum
	for i := range d.cdf {
		d.cdf[i] *= inv
	}
	d.cdf[len(d.cdf)-1] = 1
}

// sample draws one document-frequency value.
func (d *dfDist) sample(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cdf, u)
	if i >= len(d.ds) {
		i = len(d.ds) - 1
	}
	return d.ds[i]
}

// mean returns the distribution's expected document frequency (used in
// tests and diagnostics).
func (d *dfDist) mean() float64 {
	var m, prev float64
	for i, c := range d.cdf {
		m += float64(d.ds[i]) * (c - prev)
		prev = c
	}
	return m
}

// overrideView scores a database under a hypothesized document
// frequency assignment for the query words: P is replaced outright and
// Ptf is scaled proportionally (or set directly when the base had no
// estimate), leaving all other words untouched.
type overrideView struct {
	base summary.View
	p    map[string]float64
}

func (v *overrideView) DocCount() float64  { return v.base.DocCount() }
func (v *overrideView) WordCount() float64 { return v.base.WordCount() }

func (v *overrideView) P(w string) float64 {
	if p, ok := v.p[w]; ok {
		return p
	}
	return v.base.P(w)
}

func (v *overrideView) Ptf(w string) float64 {
	p, ok := v.p[w]
	if !ok {
		return v.base.Ptf(w)
	}
	baseP := v.base.P(w)
	if baseP <= 0 {
		// No base estimate to scale: convert the hypothesized document
		// fraction to the term-frequency scale. A word in d of |D|
		// documents occurs at least d times among cw(D) tokens, so
		// ptf ≈ d/cw = p·|D|/cw. Returning p itself would be a
		// document-fraction value (orders of magnitude too large for a
		// term fraction) and would wildly inflate LM score variance.
		if cw := v.base.WordCount(); cw > 0 {
			return p * v.base.DocCount() / cw
		}
		return p
	}
	return v.base.Ptf(w) * p / baseP
}
