package selection

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/summary"
)

// ByName resolves a base scorer from its configured name, ignoring
// case; "" is CORI. An unknown name is an error, not a default: a
// typo must not silently rank with a different algorithm.
func ByName(name string) (Scorer, error) {
	switch strings.ToLower(name) {
	case "", "cori":
		return CORI{}, nil
	case "bgloss":
		return BGloss{}, nil
	case "lm":
		return LM{}, nil
	}
	return nil, fmt.Errorf("unknown scorer %q (want cori | bgloss | lm)", name)
}

// BGloss is the boolean GlOSS scorer of Gravano, García-Molina &
// Tomasic (Section 5.3): s(q, D) = |D| · Π_{w∈q} p̂(w|D). It has no
// smoothing: a single query word absent from the summary zeroes the
// database's score, which is why shrinkage helps it the most.
type BGloss struct{}

// Name implements Scorer.
func (BGloss) Name() string { return "bGlOSS" }

// Score implements Scorer.
func (BGloss) Score(q []string, v summary.View, _ *Context) float64 {
	s := v.DocCount()
	for _, w := range UniqueWords(q) {
		s *= v.P(w)
		if s == 0 {
			return 0
		}
	}
	return s
}

// Term implements Scorer: a word's factor is p̂(w|D) itself.
func (BGloss) Term(string, summary.View, *Context) func(float64) float64 {
	return func(p float64) float64 { return p }
}

// DefaultScore implements Scorer: with no information, some p̂(w|D) is
// zero and the product collapses, so any positive score means the
// database was genuinely matched.
func (BGloss) DefaultScore(q []string, _ summary.View, _ *Context) float64 { return 0 }

// CORI is the inference-network scorer of Callan et al. as specified by
// French et al. (Section 5.3):
//
//	s(q, D) = Σ_{w∈q} (0.4 + 0.6·T·I) / |q|
//	T = p̂(w|D)·|D| / (p̂(w|D)·|D| + 50 + 150·cw(D)/mcw)
//	I = log((m + 0.5)/cf(w)) / log(m + 1.0)
type CORI struct{}

// Name implements Scorer.
func (CORI) Name() string { return "CORI" }

// Score implements Scorer.
func (CORI) Score(q []string, v summary.View, ctx *Context) float64 {
	words := UniqueWords(q)
	if len(words) == 0 {
		return 0
	}
	var s float64
	k := coriK(v, ctx)
	for _, w := range words {
		s += 0.4 + 0.6*coriT(v.P(w)*v.DocCount(), k)*coriI(w, ctx)
	}
	return s / float64(len(words))
}

// Term implements Scorer: a word's belief with df = p·|D|.
func (CORI) Term(w string, v summary.View, ctx *Context) func(float64) float64 {
	docs, k, i := v.DocCount(), coriK(v, ctx), coriI(w, ctx)
	return func(p float64) float64 { return 0.4 + 0.6*coriT(p*docs, k)*i }
}

// DefaultScore implements Scorer: a database containing no query word
// has T = 0 for every word, so its score is exactly 0.4.
func (CORI) DefaultScore(q []string, _ summary.View, _ *Context) float64 { return 0.4 }

// AdditiveBaseline reports that CORI's default enters its score as an
// additive, evidence-free offset (see the adaptive selection rule).
func (CORI) AdditiveBaseline() bool { return true }

// coriK is the collection-length part of T's denominator,
// 150·cw(D)/mcw.
func coriK(v summary.View, ctx *Context) float64 {
	mcw := ctx.MeanCW
	if mcw <= 0 {
		mcw = 1
	}
	return 150 * v.WordCount() / mcw
}

func coriT(df, k float64) float64 {
	if df <= 0 {
		return 0
	}
	return df / (df + 50 + k)
}

func coriI(w string, ctx *Context) float64 {
	cf := float64(ctx.CF[w])
	if cf <= 0 {
		return 0
	}
	m := float64(ctx.M)
	return math.Log((m+0.5)/cf) / math.Log(m+1.0)
}

// LM is the language-modelling scorer of Si et al. (Section 5.3):
// s(q, D) = Π_{w∈q} (λ·p̂(w|D) + (1−λ)·p̂(w|G)), with p based on term
// frequencies and G a global category (the Root category summary).
// It is equivalent to the KL-based selection of Xu & Croft.
type LM struct {
	// Lambda is the smoothing weight (default 0.5, as the paper uses
	// following Si et al.).
	Lambda float64
}

// Name implements Scorer.
func (LM) Name() string { return "LM" }

func (lm LM) lambda() float64 {
	if lm.Lambda == 0 {
		return 0.5
	}
	return lm.Lambda
}

// smoothing returns (1−λ)·p̂(w|G), the evidence-free part of a word's
// factor.
func (lm LM) smoothing(w string, ctx *Context) float64 {
	if ctx.Global == nil {
		return 0
	}
	return (1 - lm.lambda()) * ctx.Global.Ptf(w)
}

// Score implements Scorer.
func (lm LM) Score(q []string, v summary.View, ctx *Context) float64 {
	l := lm.lambda()
	s := 1.0
	for _, w := range UniqueWords(q) {
		s *= l*v.Ptf(w) + lm.smoothing(w, ctx)
		if s == 0 {
			return 0
		}
	}
	return s
}

// Term implements Scorer. The term fraction follows the hypothesised
// document fraction proportionally. A word the summary has no estimate
// to scale is converted to the term-frequency scale instead: a word in
// d of |D| documents occurs at least d times among cw(D) tokens, so
// ptf ≈ d/cw = p·|D|/cw. Using p itself would be a document-fraction
// value (orders of magnitude too large for a term fraction) and would
// wildly inflate the score variance.
func (lm LM) Term(w string, v summary.View, ctx *Context) func(float64) float64 {
	ptfPerP := 1.0
	if baseP := v.P(w); baseP > 0 {
		ptfPerP = v.Ptf(w) / baseP
	} else if cw := v.WordCount(); cw > 0 {
		ptfPerP = v.DocCount() / cw
	}
	slope, smooth := lm.lambda()*ptfPerP, lm.smoothing(w, ctx)
	return func(p float64) float64 { return slope*p + smooth }
}

// DefaultScore implements Scorer: the score of a database whose summary
// has p̂(w|D) = 0 for every query word, i.e. pure global smoothing.
func (lm LM) DefaultScore(q []string, _ summary.View, ctx *Context) float64 {
	s := 1.0
	for _, w := range UniqueWords(q) {
		s *= lm.smoothing(w, ctx)
	}
	return s
}
