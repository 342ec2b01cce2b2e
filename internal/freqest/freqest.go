// Package freqest implements the paper's frequency-estimation technique
// (Appendix A) together with the "sample–resample" database size
// estimation of Si & Callan that it relies on (Section 5.2).
//
// During sampling, Mandelbrot laws f = β·r^α are fitted to the sample's
// rank/document-frequency curve at several sample sizes |S| (package
// sampling records these as checkpoints). Appendix A observes that α
// and log β grow roughly logarithmically with |S|:
//
//	α      = A1·log|S| + A2        (Equation 4a)
//	log β  = B1·log|S| + B2        (Equation 4b)
//
// Fitting A1, A2, B1, B2 by regression and substituting the estimated
// database size |D̂| for |S| extrapolates the law to the full database,
// giving the estimated document frequency of the sample word of rank r:
//
//	log f = (A1·log|D̂| + A2)·log r + B1·log|D̂| + B2   (Equation 5)
package freqest

import (
	"errors"
	"math"
	"sort"

	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/summary"
	"repro/internal/zipf"
)

// Estimator holds the fitted regression constants of Equations 4a/4b.
type Estimator struct {
	A1, A2 float64 // alpha = A1*log|S| + A2
	B1, B2 float64 // log(beta) = B1*log|S| + B2
}

// FitCheckpoints regresses the Mandelbrot parameters recorded during
// sampling against log sample size. With a single checkpoint the
// parameters are treated as size-independent (A1 = B1 = 0), which
// degrades gracefully to using the sample's own law.
func FitCheckpoints(cps []sampling.Checkpoint) (Estimator, error) {
	if len(cps) == 0 {
		return Estimator{}, errors.New("freqest: no checkpoints")
	}
	if len(cps) == 1 {
		return Estimator{
			A2: cps[0].Law.Alpha,
			B2: math.Log(cps[0].Law.Beta),
		}, nil
	}
	logS := make([]float64, len(cps))
	alphas := make([]float64, len(cps))
	logBetas := make([]float64, len(cps))
	for i, cp := range cps {
		logS[i] = math.Log(float64(cp.Size))
		alphas[i] = cp.Law.Alpha
		logBetas[i] = math.Log(cp.Law.Beta)
	}
	a1, a2, err := stats.LinearRegression(logS, alphas)
	if err != nil {
		// All checkpoints at the same size: fall back to constants.
		last := cps[len(cps)-1]
		return Estimator{A2: last.Law.Alpha, B2: math.Log(last.Law.Beta)}, nil
	}
	b1, b2, err := stats.LinearRegression(logS, logBetas)
	if err != nil {
		last := cps[len(cps)-1]
		return Estimator{A2: last.Law.Alpha, B2: math.Log(last.Law.Beta)}, nil
	}
	return Estimator{A1: a1, A2: a2, B1: b1, B2: b2}, nil
}

// LawAt extrapolates the Mandelbrot law to a collection of size n
// (Equations 4a/4b with |S| := n).
func (e Estimator) LawAt(n float64) zipf.Mandelbrot {
	if n < 1 {
		n = 1
	}
	logN := math.Log(n)
	return zipf.Mandelbrot{
		Alpha: e.A1*logN + e.A2,
		Beta:  math.Exp(e.B1*logN + e.B2),
	}
}

// EstimateSize implements sample–resample: for words whose true
// document frequency df(w) the database reported as a query match
// count, with s_w sample documents containing w out of |S|, each word
// yields the estimate |D̂| = df(w)·|S|/s_w. The median over the usable
// words is returned, which is robust to the heavy-tailed per-word
// noise. Dedicated resample probes (frequent sample words queried after
// sampling) are preferred: sampling-phase query words are
// self-selecting — their own query pulled their documents into the
// sample, deflating the estimate toward |S|.
func EstimateSize(sample *sampling.Sample, s *summary.Summary) (float64, error) {
	n := s.SampleSize
	if n == 0 {
		return 0, errors.New("freqest: summary has no sample")
	}
	type cand struct {
		word string
		sw   int
	}
	var cands []cand
	for w, matches := range sample.ResampleDF {
		if matches <= 0 {
			continue
		}
		if sw := s.SampleDF(w); sw >= 1 {
			cands = append(cands, cand{w, sw})
		}
	}
	if len(cands) == 0 {
		for w, matches := range sample.QueryDF {
			if matches <= 0 {
				continue
			}
			if sw := s.SampleDF(w); sw >= 2 {
				cands = append(cands, cand{w, sw})
			}
		}
	}
	if len(cands) == 0 {
		for w, matches := range sample.QueryDF {
			if matches <= 0 {
				continue
			}
			if sw := s.SampleDF(w); sw >= 1 {
				cands = append(cands, cand{w, sw})
			}
		}
	}
	if len(cands) == 0 {
		// No usable resample words: the best available estimate is the
		// sample itself.
		return float64(n), nil
	}
	ests := make([]float64, len(cands))
	for i, c := range cands {
		ests[i] = float64(sample.QueryDF[c.word]) * float64(n) / float64(c.sw)
	}
	sort.Float64s(ests)
	med := ests[len(ests)/2]
	if len(ests)%2 == 0 {
		med = (med + ests[len(ests)/2-1]) / 2
	}
	if med < float64(n) {
		med = float64(n) // a database is at least as large as its sample
	}
	return med, nil
}

// Apply produces a refined copy of the sample summary s: the database
// size is set to dbSize and every word's p̂(w|D) is recomputed from the
// extrapolated Mandelbrot law (Equation 5), with the word's rank taken
// from the sample as Appendix A prescribes. Estimated document
// frequencies are clipped to [0, dbSize]; term-frequency probabilities
// are unaffected (they are scale-free). The word-frequency ranking is
// preserved, since f = β·r^α is monotone in r.
func Apply(s *summary.Summary, est Estimator, dbSize float64) *summary.Summary {
	out := s.Clone()
	if dbSize < 1 || len(s.Words) == 0 {
		return out
	}
	law := est.LawAt(dbSize)
	// Rank sample words by decreasing sample document frequency,
	// breaking ties alphabetically for determinism.
	words := make([]string, 0, len(s.Words))
	for w := range s.Words {
		words = append(words, w)
	}
	sort.Slice(words, func(i, j int) bool {
		di, dj := s.Words[words[i]].SampleDF, s.Words[words[j]].SampleDF
		if di != dj {
			return di > dj
		}
		return words[i] < words[j]
	})
	out.NumDocs = dbSize
	// Scale the collection word count with the size estimate.
	if s.SampleSize > 0 {
		out.CW = s.CW / float64(s.SampleSize) * dbSize
	}
	for r, w := range words {
		f := law.Freq(r + 1)
		if f > dbSize {
			f = dbSize
		}
		if f < 0 {
			f = 0
		}
		st := out.Words[w]
		st.P = f / dbSize
		out.Words[w] = st
	}
	return out
}

// Refine is the full Appendix A pipeline: fit the checkpoint
// regressions, estimate the database size by sample–resample, and apply
// the extrapolated law to the summary.
func Refine(s *summary.Summary, sample *sampling.Sample) (*summary.Summary, error) {
	est, err := FitCheckpoints(sample.Checkpoints)
	if err != nil {
		return nil, err
	}
	size, err := EstimateSize(sample, s)
	if err != nil {
		return nil, err
	}
	return Apply(s, est, size), nil
}

// Summarize is the offline stage between a document sample and the
// shrinkage step, for product and evaluation alike: the sample's
// content summary Ŝ(D), the sample–resample size estimate |D̂|, and the
// power-law exponent γ the adaptive uncertainty model uses. With refine
// set the summary carries the Appendix A absolute-frequency refinement
// (when the checkpoint fit succeeds); without it, the raw sample
// frequencies. A degenerate sample (nothing to fit, or no usable
// resample probe) keeps the raw summary and |D̂| = |S|.
func Summarize(sample *sampling.Sample, refine bool) (sum *summary.Summary, size, gamma float64) {
	sum = summary.FromSample(sample.Docs)
	est, errFit := FitCheckpoints(sample.Checkpoints)
	size, errSize := EstimateSize(sample, sum)
	if errFit != nil || errSize != nil {
		size = sum.NumDocs
	}
	gamma = zipf.FreqPowerLawGamma(est.LawAt(size).Alpha)
	if refine && errFit == nil {
		sum = Apply(sum, est, size)
	}
	return sum, size, gamma
}
