package selection

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/stats"
	"repro/internal/summary"
)

// This file holds the reference implementations the exact score moments
// are checked against. refDist is the document-frequency posterior
// computed from scratch for each (word, database) pair, grid and
// logarithms included; the tabulated dfTable/dfDist must reproduce it bit
// for bit. The sampler is the paper's own numerical method (Section 4),
// which draws random d1..dn combinations from those posteriors and
// scores the database under each hypothesised assignment. It knows
// nothing about Scorer.Term: a draw goes through an overrideView and the
// scorer's ordinary Score.

// refDist is the posterior distribution of a query word's true document
// frequency d in a database of n documents, given that the word
// appeared in sk of the |S| sample documents (Equation 3): the binomial
// sampling likelihood times the power-law prior p(d) ∝ d^γ, evaluated
// on a (possibly geometric) support grid with interval weights.
type refDist struct {
	// ds is the support and pr the probability of each of its points;
	// pr sums to 1.
	ds []int
	pr []float64
	// The buffers ds and pr are views of; slot 0 is the d = 0 point, in
	// view only for words the sample never saw. Kept so fill can reuse
	// them: Choose builds |q| distributions per database, one at a time.
	dsBuf []int
	prBuf []float64
}

// fill rebuilds d for one (word, database) pair in its own buffers.
func (d *refDist) fill(n, sampleSize, sk int, gamma float64, gridMax int, absentPrior float64) {
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
	// the gap to its predecessor), held in pr until normalized below.
	lps := append(d.prBuf[:0], math.Inf(-1))
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
	d.dsBuf, d.prBuf = ds, lps
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
	d.ds, d.pr = ds[lo:], lps[lo:]
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
func (d *refDist) moments(n int, term func(p float64) float64) (mean, variance float64) {
	var sum, m2 float64
	for i, pr := range d.pr {
		if pr == 0 {
			continue
		}
		t := term(float64(d.ds[i]) / float64(n))
		sum += pr
		delta := t - mean
		mean += delta * (pr / sum)
		m2 += pr * delta * (t - mean)
	}
	return mean, m2 / sum
}

// dfSampler draws document frequencies from a posterior.
type dfSampler struct {
	ds  []int
	cdf []float64
}

func (d *refDist) sampler() dfSampler { return newSampler(d.ds, d.pr) }

// newSampler draws from the distribution putting probability pr[i] on
// ds[i].
func newSampler(ds []int, pr []float64) dfSampler {
	cdf := make([]float64, len(pr))
	var sum float64
	for i, p := range pr {
		sum += p
		cdf[i] = sum
	}
	cdf[len(cdf)-1] = 1
	return dfSampler{ds: ds, cdf: cdf}
}

func newRefDist(n, sampleSize, sk int, gamma float64, gridMax int, absentPrior float64) *refDist {
	d := &refDist{}
	d.fill(n, sampleSize, sk, gamma, gridMax, absentPrior)
	return d
}

// sample draws one document-frequency value.
func (s dfSampler) sample(rng *rand.Rand) int {
	i := sort.SearchFloat64s(s.cdf, rng.Float64())
	if i >= len(s.ds) {
		i = len(s.ds) - 1
	}
	return s.ds[i]
}

// mean returns the distribution's expected document frequency.
func (d *refDist) mean() float64 {
	m, _ := d.moments(1, func(d float64) float64 { return d })
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
		// fraction to the term-frequency scale, ptf ≈ d/cw = p·|D|/cw.
		if cw := v.base.WordCount(); cw > 0 {
			return p * v.base.DocCount() / cw
		}
		return p
	}
	return v.base.Ptf(w) * p / baseP
}

// sampledMoments is the oracle's estimate for one database: the mean
// and standard deviation of the whole score, and E[t], E[t²] of each
// unique query word's own contribution — the score of that word alone,
// divided by the empty query's score for a product scorer.
type sampledMoments struct {
	mean, std float64
	t, t2     []float64
}

func sampleMoments(s Scorer, q []string, db *DB, ctx *Context, draws int, seed int64) sampledMoments {
	n := db.size()
	words := UniqueWords(q)
	gamma := db.Gamma
	if gamma == 0 {
		gamma = -2
	}
	samplers := make([]dfSampler, len(words))
	for i, w := range words {
		samplers[i] = newRefDist(n, db.Unshrunk.SampleSize, db.Unshrunk.SampleDF(w), gamma, gridMax, absentPrior).sampler()
	}
	unit := 1.0
	if !isAdditive(s) {
		unit = s.Score(nil, db.Unshrunk, ctx)
	}
	rng := rand.New(rand.NewSource(seed))
	over := &overrideView{base: db.Unshrunk, p: make(map[string]float64, len(words))}
	out := sampledMoments{t: make([]float64, len(words)), t2: make([]float64, len(words))}
	var whole stats.Welford
	for i := 0; i < draws; i++ {
		for k, w := range words {
			over.p[w] = float64(samplers[k].sample(rng)) / float64(n)
		}
		whole.Add(s.Score(q, over, ctx))
		for k, w := range words {
			t := s.Score([]string{w}, over, ctx) / unit
			out.t[k] += t / float64(draws)
			out.t2[k] += t * t / float64(draws)
		}
	}
	out.mean, out.std = whole.Mean(), whole.StdDev()
	return out
}

// oracleCase is one random (n, |S|, s_k, γ, |q|) configuration.
type oracleCase struct {
	q       []string
	db      *DB
	ctx     *Context
	allSeen bool // every query word appeared in the sample
}

func newOracleCase(rng *rand.Rand) oracleCase {
	n := int(math.Exp(rng.Float64()*math.Log(4000))) * 50 // 50 .. 200 000, log-uniform
	sampleSize := 1 + rng.Intn(300)
	if sampleSize > n {
		sampleSize = n
	}
	nq := 1 + rng.Intn(5)
	c := oracleCase{allSeen: true}
	sampleDF := map[string]int{}
	globalP := map[string]float64{}
	for k := 0; k < nq; k++ {
		w := fmt.Sprintf("w%d", k)
		c.q = append(c.q, w)
		switch rng.Intn(3) {
		case 0: // the sample never saw the word
			c.allSeen = false
		case 1: // a rare word
			sampleDF[w] = 1 + rng.Intn(3)
		default:
			sampleDF[w] = 1 + rng.Intn(sampleSize)
		}
		if sampleDF[w] > sampleSize {
			sampleDF[w] = sampleSize
		}
		globalP[w] = 0.001 + 0.1*rng.Float64()
	}
	unshrunk := sampleSummary(float64(n), sampleSize, sampleDF)
	c.db = &DB{
		Name: "d", Unshrunk: unshrunk, Shrunk: mkView(float64(n), float64(n)*100, globalP),
		Gamma: -1.2 - 1.3*rng.Float64(),
	}
	// Two neighbours so that CORI's cf and m give a non-trivial I.
	other := mkView(5000, 5e5, map[string]float64{c.q[0]: 0.2})
	empty := mkView(800, 8e4, nil)
	c.ctx = NewContext(c.q, []Entry{{View: unshrunk}, {View: other}, {View: empty}}, mkView(1e6, 1e8, globalP))
	return c
}

func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Max(math.Abs(got), math.Abs(want))
}

// TestExactMomentsMatchSampling is the property the replacement of the
// sampling estimator rests on: over random configurations, the per-word
// and whole-score moments decide computes agree with what drawing
// d1..dn combinations converges to. Seeds are fixed, so the comparison
// is deterministic; the tolerances are what 50 000 draws resolve.
func TestExactMomentsMatchSampling(t *testing.T) {
	const (
		cases = 40
		draws = 50000
		// Per-word moments, in standard errors of the sampled estimate.
		// The error is known exactly — Var[t] and Var[t²] over the same
		// distribution — which a fixed percentage cannot match: a seen
		// word's E[t] resolves to 0.1 % where an unseen word's E[t²],
		// carried by the posterior's thin upper tail, resolves to 50 %.
		maxZ = 4.5
		// CORI's whole score, absolute (scores lie in [0.4, 1]); its σ
		// resolves less sharply when a word the sample never saw puts
		// most of the spread in rare draws.
		tolMean, tolStd, tolStdUnseen = 5e-4, 3e-4, 1.5e-3
		// A product scorer's σ/μ, relative, when every word was seen.
		tolRel = 0.04
	)
	if testing.Short() {
		t.Skip("draws 50 000 combinations per case")
	}
	within := func(exact, variance, sampled float64) bool {
		return math.Abs(exact-sampled) <= maxZ*math.Sqrt(variance/draws)+1e-12*math.Abs(exact)
	}
	for _, s := range []Scorer{BGloss{}, CORI{}, LM{}} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			a := &Adaptive{Base: s}
			for ci := 0; ci < cases; ci++ {
				c := newOracleCase(rand.New(rand.NewSource(int64(1000 + ci))))
				want := sampleMoments(s, c.q, c.db, c.ctx, draws, int64(ci))
				n := c.db.size()
				for k, w := range UniqueWords(c.q) {
					dist := newRefDist(n, c.db.Unshrunk.SampleSize, c.db.Unshrunk.SampleDF(w), c.db.Gamma, gridMax, absentPrior)
					term := s.Term(w, c.db.Unshrunk, c.ctx)
					m, v := dist.moments(n, term)
					if !within(m, v, want.t[k]) {
						t.Errorf("case %d word %d: E[t] = %g, sampled %g (s.e. %g)", ci, k, m, want.t[k], math.Sqrt(v/draws))
					}
					m2, v2 := dist.moments(n, func(p float64) float64 { return term(p) * term(p) })
					if !within(m2, v2, want.t2[k]) {
						t.Errorf("case %d word %d: E[t²] = %g, sampled %g (s.e. %g)", ci, k, m2, want.t2[k], math.Sqrt(v2/draws))
					}
					if relErr(m2, v+m*m) > 1e-9 {
						t.Errorf("case %d word %d: E[t²] = %g but Var[t] + E[t]² = %g", ci, k, m2, v+m*m)
					}
				}
				var dist dfDist
				got := a.decide(c.q, UniqueWords(c.q), c.db, c.ctx, &dist)
				switch {
				case isAdditive(s):
					tol := tolStdUnseen
					if c.allSeen {
						tol = tolStd
					}
					if math.Abs(got.Mean-want.mean) > tolMean || math.Abs(got.StdDev-want.std) > tol {
						t.Errorf("case %d: mean/σ = %g/%g, sampled %g/%g", ci, got.Mean, got.StdDev, want.mean, want.std)
					}
				case c.allSeen:
					if e := relErr(got.StdDev/got.Mean, want.std/want.mean); e > tolRel {
						t.Errorf("case %d: σ/μ = %g, sampled %g (rel %.3g)", ci, got.StdDev/got.Mean, want.std/want.mean, e)
					}
				default:
					// A product over words the sample never saw is heavy-
					// tailed: its σ is carried by rare draws where every
					// such word comes out frequent at once, and the sampled
					// σ/μ of these very cases is up to 92 % off for bGlOSS at
					// 50 000 draws. The per-word moments above are what can
					// be checked; the product rule combining them is exact.
				}
			}
		})
	}
}

// TestTermsFoldToScore pins the contract Scorer.Term documents, so the
// per-word term and Score cannot drift apart: evaluating every word's
// term at the view's own p̂(w|D) and combining by the scorer's rule
// reproduces Score, on sample summaries and on shrunk views alike.
func TestTermsFoldToScore(t *testing.T) {
	tree := hierTree()
	cls := []core.Classified{
		classified(t, tree, "heart1", "Heart", 1000, map[string]float64{"blood": 0.5, "valve": 0.3, "goal": 0.001}),
		classified(t, tree, "heart2", "Heart", 4000, map[string]float64{"blood": 0.3, "pressure": 0.2}),
		classified(t, tree, "soccer1", "Soccer", 2500, map[string]float64{"goal": 0.6, "blood": 0.01}),
	}
	cats := core.BuildCategorySummaries(tree, cls, core.SizeWeighted)
	var views []summary.View
	var entries []Entry
	for _, c := range cls {
		views = append(views, c.Sum, core.Shrink(cats, c, core.ShrinkOptions{}))
		entries = append(entries, Entry{Name: c.Name, View: c.Sum})
	}
	queries := [][]string{
		{"blood"}, {"blood", "valve"}, {"goal", "pressure", "blood"},
		{"blood", "absent"}, {"valve", "blood", "valve"},
	}
	for _, s := range []Scorer{BGloss{}, CORI{}, LM{}, LM{Lambda: 0.3}} {
		for _, q := range queries {
			ctx := NewContext(q, entries, cats.Summary(hierarchy.Root))
			for vi, v := range views {
				words := UniqueWords(q)
				sum, prod := 0.0, s.Score(nil, v, ctx)
				for _, w := range words {
					term := s.Term(w, v, ctx)(v.P(w))
					sum += term
					prod *= term
				}
				folded := prod
				if isAdditive(s) {
					folded = sum / float64(len(words))
				}
				if want := s.Score(q, v, ctx); relErr(folded, want) > 1e-12 {
					t.Errorf("%s %v view %d: folded terms = %g, Score = %g", s.Name(), q, vi, folded, want)
				}
			}
		}
	}
}

// TestLongProductQueryKeepsFiniteUncertainty: a 25-word bGlOSS score is
// around 1e-80, where E[s²] − E[s]² would cancel to nothing (and a
// longer LM product would underflow outright); the relative form keeps
// σ/μ finite and positive.
func TestLongProductQueryKeepsFiniteUncertainty(t *testing.T) {
	sampleDF := map[string]int{}
	shrunkP := map[string]float64{}
	var q []string
	for k := 0; k < 25; k++ {
		w := fmt.Sprintf("w%d", k)
		q = append(q, w)
		sampleDF[w] = 1 + k%3
		shrunkP[w] = 0.001
	}
	unshrunk := sampleSummary(100000, 300, sampleDF)
	db := &DB{Name: "d", Unshrunk: unshrunk, Shrunk: mkView(100000, 1e7, shrunkP)}
	for _, s := range []Scorer{BGloss{}, LM{}} {
		ctx := NewContext(q, []Entry{{View: unshrunk}}, mkView(1e6, 1e8, shrunkP))
		_, decisions := (&Adaptive{Base: s}).Choose(q, []*DB{db}, ctx)
		d := decisions[0]
		if !(d.Mean > 0) || d.Mean > 1e-40 {
			t.Errorf("%s: mean = %g, want a minuscule positive product", s.Name(), d.Mean)
		}
		if rel := d.StdDev / d.Mean; !(rel > 0) || math.IsInf(rel, 0) {
			t.Errorf("%s: σ/μ = %g (mean %g, σ %g), want finite and positive", s.Name(), rel, d.Mean, d.StdDev)
		}
	}
}
