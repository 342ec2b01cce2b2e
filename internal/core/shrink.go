package core

import (
	"sort"

	"repro/internal/summary"
	"repro/internal/telemetry"
)

// ShrinkOptions tunes the EM computation of the mixture weights.
type ShrinkOptions struct {
	// Epsilon is the convergence threshold on the largest λ change per
	// iteration (default 1e-3, the "small ε" of Figure 2).
	Epsilon float64
	// MaxIter caps EM iterations (default 100).
	MaxIter int
	// Span receives a shrink.em trace event per run (iterations to
	// convergence, λ extremes, overlap-subtraction stats); Metrics
	// receives the EM counters. Both may be nil.
	Span    *telemetry.Span
	Metrics *telemetry.Registry
}

func (o ShrinkOptions) withDefaults() ShrinkOptions {
	if o.Epsilon == 0 {
		o.Epsilon = 1e-3
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	return o
}

// Lambda is one mixture component's weight, in the style of the paper's
// Table 2. It is the one λ type: the tags are the save file's and the
// audit trail's wire format, so the vector Shrink builds is what
// DatabaseInfo, the save file's telemetry object and audit.Candidate
// carry, uncopied.
type Lambda struct {
	Component string  `json:"component"` // "Uniform", category name, or the database name
	Weight    float64 `json:"weight"`
}

// ShrunkSummary is the shrinkage-based content summary R̂(D) of
// Definition 4. It evaluates p̂R(w|D) lazily over the union vocabulary,
// so database selection can consult it per query word without
// materializing hundreds of thousands of entries; Materialize produces
// an explicit summary for evaluation.
//
// ShrunkSummary implements summary.View and is safe for concurrent use.
type ShrunkSummary struct {
	db      Classified
	levels  []*levelStats
	lambdas []Lambda // [0]=uniform C0, [1..m]=path levels, [m+1]=database; never modified
	uniform float64  // p̂(w|C0)
	emIters int
	path    string // db's classification path, root first
}

// Shrink computes the shrunk content summary of db: it builds the
// effective (overlap-subtracted) category summaries along db's
// classification path and runs the Figure 2 EM algorithm to find the
// mixture weights λ that make R̂(D) maximally similar to Ŝ(D) and to
// the category summaries.
func Shrink(cs *CategorySummaries, db Classified, opts ShrinkOptions) *ShrunkSummary {
	opts = opts.withDefaults()
	levels := cs.levels(db)
	m := len(levels) // path length (C1..Cm); components = m+2
	ss := &ShrunkSummary{
		db:      db,
		levels:  levels,
		uniform: cs.UniformP(),
		path:    cs.tree.PathString(db.Category),
	}
	ss.lambdas = make([]Lambda, m+2)
	ss.lambdas[0].Component = "Uniform"
	for i, c := range cs.tree.Path(db.Category) {
		ss.lambdas[i+1].Component = cs.tree.Node(c).Name
	}
	ss.lambdas[m+1].Component = db.Name
	if db.Name == "" {
		ss.lambdas[m+1].Component = "Database"
	}

	// Precompute, for every word of the database's own summary, the
	// per-level effective probabilities, so EM iterations are pure
	// array arithmetic.
	words := make([]string, 0, len(db.Sum.Words))
	for w := range db.Sum.Words {
		words = append(words, w)
	}
	sort.Strings(words) // deterministic iteration
	nW := len(words)

	// Following the original shrinkage EM of McCallum et al., the λ
	// weights are estimated on held-out evidence by leave-one-out:
	// every observed (word, sample document) incidence is one
	// observation, weighted by the word's sample document frequency,
	// and the database component predicts each observation with that
	// observation removed — p̂loo(w|D) = p̂(w|D)·(s_w−1)/s_w. A word
	// seen in a single sample document therefore gets no support from
	// the database's own summary, and the EM must explain it with the
	// category summaries (or the uniform background), which is what
	// gives the ancestors their weight. Without leave-one-out the
	// database component trivially maximizes the fit to its own summary
	// and every other λi collapses to zero.
	weight := make([]float64, nW)
	loo := make([]float64, nW)
	for j, w := range words {
		weight[j] = 1
		st := db.Sum.Words[w]
		loo[j] = st.P
		if st.SampleDF > 0 {
			weight[j] = float64(st.SampleDF)
			loo[j] = st.P * float64(st.SampleDF-1) / float64(st.SampleDF)
		}
	}
	pw := make([][]float64, m+2)
	pw[0] = make([]float64, nW)
	for j := range pw[0] {
		pw[0][j] = ss.uniform
	}
	for i := 0; i < m; i++ {
		col := make([]float64, nW)
		for j, w := range words {
			col[j] = levels[i].p(w)
		}
		pw[i+1] = col
	}
	pw[m+1] = loo

	// Initialization step: uniform λ.
	nC := m + 2
	lambda := make([]float64, nC)
	for i := range lambda {
		lambda[i] = 1 / float64(nC)
	}

	beta := make([]float64, nC)
	iters := 0
	for ; iters < opts.MaxIter; iters++ {
		// Expectation step: βi = Σ_w λi·p̂(w|Ci) / p̂R(w|D).
		for i := range beta {
			beta[i] = 0
		}
		for j := 0; j < nW; j++ {
			var pr float64
			for i := 0; i < nC; i++ {
				pr += lambda[i] * pw[i][j]
			}
			if pr <= 0 {
				continue
			}
			inv := weight[j] / pr
			for i := 0; i < nC; i++ {
				beta[i] += lambda[i] * pw[i][j] * inv
			}
		}
		// Maximization step: λi = βi / Σβj.
		var total float64
		for _, b := range beta {
			total += b
		}
		if total <= 0 {
			break
		}
		maxDelta := 0.0
		for i := range lambda {
			next := beta[i] / total
			if d := abs(next - lambda[i]); d > maxDelta {
				maxDelta = d
			}
			lambda[i] = next
		}
		if maxDelta < opts.Epsilon {
			iters++
			break
		}
	}
	for i, w := range lambda {
		ss.lambdas[i].Weight = w
	}
	ss.emIters = iters

	// Telemetry: how hard the Figure 2 EM had to work, and what the
	// overlap subtraction of Section 3.2 left per level. emptyLevels
	// counts path levels with no data left once descendants (and the
	// database itself) are subtracted — those components are dead weight
	// the EM must drive to zero.
	if opts.Metrics != nil {
		opts.Metrics.Counter("em_runs_total").Inc()
		opts.Metrics.Counter("em_iterations_total").Add(int64(iters))
	}
	if opts.Span != nil {
		emptyLevels := 0
		for _, l := range levels {
			if l.empty() {
				emptyLevels++
			}
		}
		opts.Span.Event("shrink.em",
			telemetry.String("db", db.Name),
			telemetry.Int("iterations", iters),
			telemetry.Int("components", nC),
			telemetry.Int("path_levels", m),
			telemetry.Int("empty_levels", emptyLevels),
			telemetry.Float("lambda_uniform", lambda[0]),
			telemetry.Float("lambda_self", lambda[nC-1]))
	}
	return ss
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// DocCount implements summary.View; the shrunk summary keeps the
// database's own size estimate.
func (ss *ShrunkSummary) DocCount() float64 { return ss.db.Sum.NumDocs }

// WordCount implements summary.View.
func (ss *ShrunkSummary) WordCount() float64 { return ss.db.Sum.CW }

// P returns the shrinkage-based estimate p̂R(w|D) of Equation 2.
func (ss *ShrunkSummary) P(w string) float64 {
	pr := ss.lambdas[0].Weight * ss.uniform
	m := len(ss.levels)
	for i := 0; i < m; i++ {
		pr += ss.lambdas[i+1].Weight * ss.levels[i].p(w)
	}
	pr += ss.lambdas[m+1].Weight * ss.db.Sum.P(w)
	return pr
}

// Ptf returns the shrunk term-frequency probability, mixing the levels'
// tf-based estimates with the same λ weights (the LM adaptation of
// Section 5.3).
func (ss *ShrunkSummary) Ptf(w string) float64 {
	pr := ss.lambdas[0].Weight * ss.uniform
	m := len(ss.levels)
	for i := 0; i < m; i++ {
		pr += ss.lambdas[i+1].Weight * ss.levels[i].ptf(w)
	}
	pr += ss.lambdas[m+1].Weight * ss.db.Sum.Ptf(w)
	return pr
}

// Base returns the unshrunk summary R̂(D) was built from.
func (ss *ShrunkSummary) Base() *summary.Summary { return ss.db.Sum }

// EMIterations reports how many EM iterations were run.
func (ss *ShrunkSummary) EMIterations() int { return ss.emIters }

// Lambdas returns the mixture weights with their component names, from
// the uniform dummy category down to the database itself (the layout of
// the paper's Table 2). It is the vector Shrink built, shared by every
// caller: read it, do not modify it.
func (ss *ShrunkSummary) Lambdas() []Lambda { return ss.lambdas }

// Category returns the classification path the λ vector was fitted
// along, root first, in the paper's notation ("Root→ Health→ Heart"):
// whose vocabulary the shrunk summary borrows.
func (ss *ShrunkSummary) Category() string { return ss.path }

// Materialize produces an explicit summary holding every word whose
// estimated document count round(|D̂|·p̂R(w|D)) is at least minEffDF
// (the paper's evaluation uses 1: "we drop from the shrunk content
// summaries every word that is estimated to appear in less than one
// document", Section 6.1). Sample statistics (SampleDF, SampleSize) are
// carried over from the base summary so downstream consumers can still
// see the sampling evidence.
func (ss *ShrunkSummary) Materialize(minEffDF int) *summary.Summary {
	out := &summary.Summary{
		NumDocs:    ss.db.Sum.NumDocs,
		CW:         ss.db.Sum.CW,
		SampleSize: ss.db.Sum.SampleSize,
		Words:      make(map[string]summary.Word, 2*len(ss.db.Sum.Words)),
	}
	n := ss.db.Sum.NumDocs
	keep := func(w string) {
		if _, done := out.Words[w]; done {
			return
		}
		p := ss.P(w)
		if int(n*p+0.5) < minEffDF {
			return
		}
		out.Words[w] = summary.Word{
			P:        p,
			Ptf:      ss.Ptf(w),
			SampleDF: ss.db.Sum.SampleDF(w),
		}
	}
	for w := range ss.db.Sum.Words {
		keep(w)
	}
	for _, l := range ss.levels {
		if l.empty() {
			continue
		}
		for w := range l.agg.sumPW {
			keep(w)
		}
	}
	return out
}
