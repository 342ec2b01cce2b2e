package main

import (
	"math"
	"testing"
	"time"

	"repro"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	// 20 samples: the p95 is the 19th, leaving exactly one beyond it.
	if got := percentile(xs[:20], 0.95); got != 19 {
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	in := []float64{5, 1, 3}
	if got := median(in); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing = %v, want 0", got)
	}
}

// evenSamples spreads n samples evenly over dur, all with latency lat
// except that every tenth takes ten times as long.
func evenSamples(n int, dur, lat time.Duration) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = sample{at: time.Duration(i) * dur / time.Duration(n), lat: lat}
		if i%10 == 9 {
			out[i].lat = 10 * lat
		}
	}
	return out
}

func TestSummarize(t *testing.T) {
	// 1000 samples in 10 s: 100 requests/s, five windows of 200.
	st := summarize(evenSamples(1000, 10*time.Second, time.Millisecond), 10*time.Second)
	if st.Windows != 5 || st.Samples != 1000 {
		t.Fatalf("windows, samples = %d, %d, want 5, 1000", st.Windows, st.Samples)
	}
	if math.Abs(st.QPS-100) > 1e-9 {
		t.Errorf("QPS = %v, want 100", st.QPS)
	}
	if st.P50ms != 1 || st.P95ms != 10 || st.P99ms != 10 {
		t.Errorf("p50, p95, p99 = %v, %v, %v ms, want 1, 10, 10", st.P50ms, st.P95ms, st.P99ms)
	}
	if st.Spread != 0 {
		t.Errorf("spread = %v over identical windows, want 0", st.Spread)
	}

	// 399 samples cannot fill two windows of 200, nor carry a p99.
	if st := summarize(evenSamples(399, 10*time.Second, time.Millisecond), 10*time.Second); st.Windows != 1 || st.P99ms != 0 {
		t.Errorf("399 samples gave %d windows and p99 %v, want 1 and 0", st.Windows, st.P99ms)
	}
	if st := summarize(evenSamples(20000, 10*time.Second, time.Millisecond), 10*time.Second); st.Windows != 20 {
		t.Errorf("20000 samples gave %d windows, want 20", st.Windows)
	}
	if st := summarize(nil, time.Second); st.QPS != 0 || st.Windows != 0 {
		t.Errorf("no samples gave %+v", st)
	}
}

func TestSummarizeTakesTheWholePhase(t *testing.T) {
	// Five windows of 200; the third is ten times slower and has a
	// straggler that landed after the deadline.
	var ss []sample
	for w := 0; w < 5; w++ {
		for i := 0; i < 200; i++ {
			lat := time.Millisecond
			if w == 2 {
				lat = 10 * time.Millisecond
			}
			ss = append(ss, sample{at: time.Duration(w)*time.Second + time.Duration(i)*5*time.Millisecond, lat: lat})
		}
	}
	ss = append(ss, sample{at: 5*time.Second + time.Millisecond, lat: time.Second})
	st := summarize(ss, 5*time.Second)
	if st.P50ms != 1 || st.P95ms != 10 {
		t.Errorf("p50, p95 = %v, %v ms, want 1 and the slow window's 10", st.P50ms, st.P95ms)
	}
	if math.Abs(st.QPS-1001.0/5) > 1e-9 {
		t.Errorf("QPS = %v, want every sample over the whole phase", st.QPS)
	}
	if st.Windows != 5 {
		t.Errorf("windows = %d, want 5", st.Windows)
	}
	if math.Abs(st.Spread-1.0/200) > 1e-9 {
		t.Errorf("spread = %v, want one extra sample in 200", st.Spread)
	}
}

func TestAnswerDigest(t *testing.T) {
	sels := []repro.Selection{{Database: "a", Score: 0.5, Shrinkage: true}, {Database: "b", Score: 0.25}}
	res := []repro.Result{{Database: "a", DocID: 3, Score: 0.9}, {Database: "b", DocID: 1, Score: 0.1}}
	base := answerDigest("q", sels, res)
	if base != answerDigest("q", append([]repro.Selection(nil), sels...), append([]repro.Result(nil), res...)) {
		t.Fatal("equal answers digest differently")
	}
	differs := func(name, q string, s []repro.Selection, r []repro.Result) {
		t.Helper()
		if answerDigest(q, s, r) == base {
			t.Errorf("%s: digest did not change", name)
		}
	}
	differs("query", "q2", sels, res)
	nextUp := append([]repro.Selection(nil), sels...)
	nextUp[0].Score = math.Nextafter(0.5, 1)
	differs("one ulp of a selection score", "q", nextUp, res)
	flipped := append([]repro.Selection(nil), sels...)
	flipped[1].Shrinkage = true
	differs("shrinkage verdict", "q", flipped, res)
	differs("result order", "q", sels, []repro.Result{res[1], res[0]})
	differs("missing result", "q", sels, res[:1])
	// A name may not slide between fields or lists unnoticed.
	differs("field boundary", "qa", []repro.Selection{{Database: "", Score: 0.5, Shrinkage: true}, sels[1]}, res)

	d1, d2 := answerDigest("x", nil, nil), answerDigest("y", nil, nil)
	if combineDigests([]digest{d1, d2}) == combineDigests([]digest{d2, d1}) {
		t.Error("combined digest ignores query order")
	}
	if combineDigests([]digest{d1, d2}) != combineDigests([]digest{d1, d2}) {
		t.Error("combined digest is not deterministic")
	}
}

func TestPermutationCoversThePoolOnceAcrossClients(t *testing.T) {
	const n, clients = 300, 2
	p := newPermutation(n, clients, 42)
	seen := make(map[int]int)
	for c := 0; c < clients; c++ {
		for i := 0; i < n/clients; i++ {
			seen[p.at(c, i)]++
		}
	}
	if len(seen) != n {
		t.Fatalf("two clients covered %d of %d queries in one pass", len(seen), n)
	}
	if q := newPermutation(n, clients, 42); q.at(1, 7) != p.at(1, 7) {
		t.Error("same seed, different order")
	}
	same := 0
	q := newPermutation(n, clients, 43)
	for i := 0; i < n; i++ {
		if q.at(0, i) == p.at(0, i) {
			same++
		}
	}
	if same > n/10 {
		t.Errorf("seeds 42 and 43 agree on %d of %d positions", same, n)
	}
	// Past the end it cycles.
	if p.at(0, n+3) != p.at(0, 3) {
		t.Error("permutation does not cycle")
	}
}

func TestExpectationsPinTheFirstAnswer(t *testing.T) {
	e := newExpectations()
	a, b := answerDigest("a", nil, nil), answerDigest("b", nil, nil)
	if !e.check(1, a) {
		t.Error("first answer rejected")
	}
	if !e.check(1, a) {
		t.Error("same answer rejected")
	}
	if e.check(1, b) {
		t.Error("a different answer for the same query accepted")
	}
	if !e.check(2, b) {
		t.Error("another query's first answer rejected")
	}
}
