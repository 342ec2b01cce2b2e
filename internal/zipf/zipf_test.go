package zipf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(0, 1, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewSampler(10, 0, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := NewSampler(10, 1, -1); err == nil {
		t.Error("c<0 accepted")
	}
}

func TestSamplerProbsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s, err := NewSampler(n, 0.5+rng.Float64()*2, rng.Float64()*5)
		if err != nil {
			return false
		}
		var sum float64
		for r := 0; r < n; r++ {
			p := s.Prob(r)
			if p < 0 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSamplerProbMonotoneDecreasing(t *testing.T) {
	s, err := NewSampler(100, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 100; r++ {
		if s.Prob(r) > s.Prob(r-1)+1e-15 {
			t.Fatalf("Prob(%d)=%v > Prob(%d)=%v", r, s.Prob(r), r-1, s.Prob(r-1))
		}
	}
	if s.Prob(-1) != 0 || s.Prob(100) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestSamplerEmpiricalMatchesTheoretical(t *testing.T) {
	s, err := NewSampler(50, 1.2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	const draws = 200000
	counts := make([]int, 50)
	for i := 0; i < draws; i++ {
		counts[s.Sample(rng)]++
	}
	for r := 0; r < 10; r++ {
		emp := float64(counts[r]) / draws
		th := s.Prob(r)
		if math.Abs(emp-th) > 0.01 {
			t.Errorf("rank %d: empirical %v vs theoretical %v", r, emp, th)
		}
	}
}

func TestSamplerZipfHeadHeavy(t *testing.T) {
	// The defining property the paper leans on: a few head words carry
	// most of the mass, and the tail is huge but individually rare.
	s, err := NewSampler(10000, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var head float64
	for r := 0; r < 100; r++ {
		head += s.Prob(r)
	}
	if head < 0.5 {
		t.Errorf("top-1%% of ranks carry %v of mass, expected majority", head)
	}
	if s.Prob(9999) > 1e-4 {
		t.Errorf("tail word too frequent: %v", s.Prob(9999))
	}
}

func TestRankFrequencies(t *testing.T) {
	counts := map[string]int{"a": 10, "b": 5, "c": 5, "d": 1}
	rf := RankFrequencies(counts)
	if len(rf) != 4 {
		t.Fatalf("len = %d", len(rf))
	}
	wantFreqs := []float64{10, 5, 5, 1}
	for i, p := range rf {
		if p.Rank != i+1 || p.Freq != wantFreqs[i] {
			t.Errorf("point %d = %+v", i, p)
		}
	}
}

func TestFitRecoversExactLaw(t *testing.T) {
	truth := Mandelbrot{Alpha: -1.3, Beta: 5000}
	var pts []RankFreq
	for r := 1; r <= 200; r++ {
		pts = append(pts, RankFreq{Rank: r, Freq: truth.Freq(r)})
	}
	fit, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 1e-9 || math.Abs(fit.Beta-truth.Beta)/truth.Beta > 1e-9 {
		t.Errorf("fit = %+v, want %+v", fit, truth)
	}
}

func TestFitSkipsZeroFrequencies(t *testing.T) {
	pts := []RankFreq{
		{Rank: 1, Freq: 100},
		{Rank: 2, Freq: 0}, // must be skipped, log(0) undefined
		{Rank: 3, Freq: 33.3},
		{Rank: 10, Freq: 10},
	}
	if _, err := Fit(pts); err != nil {
		t.Fatalf("Fit with zero-frequency point: %v", err)
	}
}

func TestFitErrorsOnInsufficientData(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("empty fit accepted")
	}
	if _, err := Fit([]RankFreq{{Rank: 1, Freq: 5}}); err == nil {
		t.Error("single-point fit accepted")
	}
}

func TestFitCountsOnGeneratedCorpus(t *testing.T) {
	// Generate word occurrences from a known Zipf law and verify the
	// fitted alpha is in a plausible range. Sampled counts are noisy at
	// the tail, so the fit is biased; we only require the right regime.
	s, err := NewSampler(2000, 1.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	counts := make(map[string]int)
	for i := 0; i < 300000; i++ {
		counts[fmt.Sprintf("w%d", s.Sample(rng))]++
	}
	fit, err := Fit(RankFrequencies(counts))
	if err != nil {
		t.Fatal(err)
	}
	if fit.Alpha > -0.5 || fit.Alpha < -2.0 {
		t.Errorf("fitted alpha = %v, want in [-2.0, -0.5]", fit.Alpha)
	}
	if fit.Beta <= 0 {
		t.Errorf("fitted beta = %v", fit.Beta)
	}
}

func TestFreqPowerLawGamma(t *testing.T) {
	// Pure Zipf alpha = -1 gives the classic gamma = -2.
	if g := FreqPowerLawGamma(-1); math.Abs(g+2) > 1e-12 {
		t.Errorf("gamma(-1) = %v", g)
	}
	if g := FreqPowerLawGamma(-0.5); math.Abs(g+3) > 1e-12 {
		t.Errorf("gamma(-0.5) = %v", g)
	}
	if g := FreqPowerLawGamma(0); g != -2 {
		t.Errorf("gamma(0) = %v, want fallback -2", g)
	}
	// Degenerate fits are clamped into the sane range.
	if g := FreqPowerLawGamma(0.3); g != -1.2 { // would be +2.33
		t.Errorf("gamma(positive alpha) = %v, want clamp to -1.2", g)
	}
	if g := FreqPowerLawGamma(-0.02); g != -6 { // would be -51
		t.Errorf("gamma(flat curve) = %v, want clamp to -6", g)
	}
	if g := FreqPowerLawGamma(-2); g != -1.5 {
		t.Errorf("gamma(-2) = %v, want -1.5", g)
	}
}

func TestMandelbrotFreqDecreasing(t *testing.T) {
	m := Mandelbrot{Alpha: -1.2, Beta: 1000}
	prev := math.Inf(1)
	for r := 1; r <= 100; r++ {
		f := m.Freq(r)
		if f >= prev {
			t.Fatalf("Freq not strictly decreasing at rank %d", r)
		}
		prev = f
	}
}

func BenchmarkSample(b *testing.B) {
	s, err := NewSampler(50000, 1.05, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

func BenchmarkFit(b *testing.B) {
	truth := Mandelbrot{Alpha: -1.1, Beta: 900}
	pts := make([]RankFreq, 5000)
	for r := range pts {
		pts[r] = RankFreq{Rank: r + 1, Freq: truth.Freq(r + 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fit(pts)
	}
}

func TestFitBalancedMatchesExactLaw(t *testing.T) {
	truth := Mandelbrot{Alpha: -0.9, Beta: 2000}
	var pts []RankFreq
	for r := 1; r <= 5000; r++ {
		pts = append(pts, RankFreq{Rank: r, Freq: truth.Freq(r)})
	}
	fit, err := FitBalanced(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.01 || math.Abs(fit.Beta-truth.Beta)/truth.Beta > 0.05 {
		t.Errorf("balanced fit = %+v, want %+v", fit, truth)
	}
}

func TestFitBalancedResistsTailSaturation(t *testing.T) {
	// Realistic sample curve: the head follows the law but the tail
	// saturates at frequency 1 for thousands of ranks. The ordinary
	// fit overestimates the head badly; the balanced fit must not.
	truth := Mandelbrot{Alpha: -1.0, Beta: 300}
	var pts []RankFreq
	for r := 1; r <= 5000; r++ {
		f := truth.Freq(r)
		if f < 1 {
			f = 1
		}
		pts = append(pts, RankFreq{Rank: r, Freq: f})
	}
	plain, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := FitBalanced(pts)
	if err != nil {
		t.Fatal(err)
	}
	plainHeadErr := math.Abs(plain.Freq(1) - 300)
	balHeadErr := math.Abs(balanced.Freq(1) - 300)
	if balHeadErr >= plainHeadErr {
		t.Errorf("balanced fit no better at head: plain err %v, balanced err %v", plainHeadErr, balHeadErr)
	}
	if balHeadErr > 200 {
		t.Errorf("balanced head estimate off by %v (f(1)=%v, want ~300)", balHeadErr, balanced.Freq(1))
	}
}

func TestFitBalancedSmallInputFallsBack(t *testing.T) {
	pts := []RankFreq{{1, 100}, {2, 50}, {3, 33}}
	a, err := Fit(pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitBalanced(pts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("small input should use the plain fit: %+v vs %+v", a, b)
	}
}
