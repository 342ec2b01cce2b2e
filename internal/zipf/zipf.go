// Package zipf implements the power-law word-frequency machinery the
// paper builds on. Zipf's law is why document samples miss words
// (Section 1); Mandelbrot's generalization f = β·(r+c)^α underlies the
// Appendix A frequency-estimation technique; and the frequency-domain
// power law ("approximately c·f^γ words have frequency f", Appendix B,
// with γ = 1/α − 1) gives the prior for the adaptive selection
// algorithm's score-distribution estimation.
package zipf

import (
	"errors"
	"math"
	"math/rand"
	"sort"

	"repro/internal/stats"
)

// Sampler draws ranks 0..n-1 with probability proportional to
// (rank+1+c)^(-s), i.e., a Mandelbrot-distributed categorical sampler.
// It precomputes the cumulative distribution and samples by binary
// search, so draws cost O(log n). Samplers are safe for concurrent use
// once built (the caller supplies the *rand.Rand per draw).
type Sampler struct {
	cdf []float64
}

// NewSampler builds a sampler over n ranks with Zipf-Mandelbrot
// exponent s > 0 and shift c >= 0. The canonical Zipf distribution is
// s = 1, c = 0.
func NewSampler(n int, s, c float64) (*Sampler, error) {
	if n <= 0 {
		return nil, errors.New("zipf: need at least one rank")
	}
	if s <= 0 {
		return nil, errors.New("zipf: exponent must be positive")
	}
	if c < 0 {
		return nil, errors.New("zipf: shift must be non-negative")
	}
	cdf := make([]float64, n)
	var sum float64
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1)+c, -s)
		cdf[r] = sum
	}
	inv := 1 / sum
	for r := range cdf {
		cdf[r] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Sampler{cdf: cdf}, nil
}

// N returns the number of ranks.
func (s *Sampler) N() int { return len(s.cdf) }

// Sample draws one rank in [0, N) using rng.
func (s *Sampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(s.cdf, u)
}

// Prob returns the probability of drawing rank r.
func (s *Sampler) Prob(r int) float64 {
	if r < 0 || r >= len(s.cdf) {
		return 0
	}
	if r == 0 {
		return s.cdf[0]
	}
	return s.cdf[r] - s.cdf[r-1]
}

// RankFreq is one point of a rank-frequency curve: the 1-based Rank of
// a word by decreasing frequency, and its frequency (count).
type RankFreq struct {
	Rank int
	Freq float64
}

// RankFrequencies converts word counts into a rank-frequency curve
// sorted by decreasing frequency (ties broken deterministically by the
// iteration-independent count value; rank assignment among equal counts
// is arbitrary but frequencies are what matter for fitting).
func RankFrequencies(counts map[string]int) []RankFreq {
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	out := make([]RankFreq, len(freqs))
	for i, f := range freqs {
		out[i] = RankFreq{Rank: i + 1, Freq: float64(f)}
	}
	return out
}

// Mandelbrot holds the parameters of the simplified Mandelbrot law
// f = Beta * r^Alpha used by Appendix A (frequency f of the word with
// rank r; Alpha < 0 for real text).
type Mandelbrot struct {
	Alpha float64
	Beta  float64
}

// Freq evaluates the law at 1-based rank r.
func (m Mandelbrot) Freq(r int) float64 {
	return m.Beta * math.Pow(float64(r), m.Alpha)
}

// Fit estimates Alpha and Beta by least squares on the log-log
// rank-frequency curve: log f = log β + α·log r. Points with zero
// frequency are skipped. At least two usable points are required.
func Fit(points []RankFreq) (Mandelbrot, error) {
	xs := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		if p.Freq <= 0 || p.Rank <= 0 {
			continue
		}
		xs = append(xs, math.Log(float64(p.Rank)))
		ys = append(ys, math.Log(p.Freq))
	}
	slope, intercept, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return Mandelbrot{}, err
	}
	return Mandelbrot{Alpha: slope, Beta: math.Exp(intercept)}, nil
}

// FitBalanced fits the law on a logarithmically subsampled set of rank
// points: every rank up to 10, then geometrically spaced ranks (ratio
// 1.25). An ordinary least-squares fit over all ranks is dominated by
// the huge low-frequency tail — thousands of rank points with frequency
// 1 — which badly overestimates the head frequencies; balancing the
// rank decades keeps the fitted curve faithful at both ends. This
// matters for the Appendix A extrapolation, whose head estimates would
// otherwise saturate.
func FitBalanced(points []RankFreq) (Mandelbrot, error) {
	if len(points) <= 12 {
		return Fit(points)
	}
	var sel []RankFreq
	next := 1.0
	for _, p := range points {
		if float64(p.Rank) >= next || p.Rank <= 10 {
			sel = append(sel, p)
			for next <= float64(p.Rank) {
				if next < 10 {
					next++
				} else {
					next *= 1.25
				}
			}
		}
	}
	return Fit(sel)
}

// FitCountsBalanced fits directly from word counts with balanced ranks.
func FitCountsBalanced(counts map[string]int) (Mandelbrot, error) {
	return FitBalanced(RankFrequencies(counts))
}

// FreqPowerLawGamma converts the rank-domain exponent α to the
// frequency-domain exponent γ of the power law "c·f^γ words have
// frequency f" via γ = 1/α − 1 (Appendix B; Adamic's ranking tutorial).
// For real text α < 0, so γ < −1 (pure Zipf α = −1 gives the classic
// γ = −2). Degenerate fits — flat or inverted rank curves from tiny or
// pathological vocabularies — would produce γ ≥ −1 or even positive γ,
// inverting the Appendix B prior, so the result is clamped to the
// empirically sane range [MinGamma, MaxGamma].
func FreqPowerLawGamma(alpha float64) float64 {
	if alpha == 0 {
		return -2
	}
	g := 1/alpha - 1
	if g < MinGamma {
		return MinGamma
	}
	if g > MaxGamma {
		return MaxGamma
	}
	return g
}

// MinGamma and MaxGamma bound every γ FreqPowerLawGamma returns.
const (
	MinGamma = -6.0
	MaxGamma = -1.2
)
