package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"time"

	"repro"
)

// percentile returns the q-quantile of an ascending slice by the
// nearest-rank rule, so the p95 of n samples leaves floor(0.05·n)
// samples beyond it. An empty slice yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle value (mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max − min) / median: how far the windows of one run
// disagree.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / m
}

// sample is one answered request: when it completed (since the measured
// phase began) and how long the client waited for it.
type sample struct {
	at, lat time.Duration
}

// Sample floors. A p95 needs 200 samples to leave ten beyond it and a
// p99 needs 1000; a window of the throughput spread holds at least 200.
const (
	minWindowSamples = 200
	maxWindows       = 20
	p99Samples       = 1000
)

// loadStats condenses one measured phase. Throughput and the latency
// percentiles are taken over every sample of the phase, not per window:
// the cluster's 700 MB heap makes a collection last over a second and
// come every three to five, so a half-second window lies either inside
// one or outside, and a median of window values flips between the two
// regimes with the number of windows the collections happened to cover.
// Over twelve runs the whole-phase p95 spread half as far as the
// median-window p95 did.
type loadStats struct {
	QPS, P50ms, P95ms float64
	// P99ms is 0 unless the phase held p99Samples.
	P99ms   float64
	Spread  float64 // of the per-window throughput
	Windows int
	Samples int
}

// summarize takes throughput and latency percentiles over the whole
// measured phase, then splits it into equal time windows — as many (up
// to maxWindows) as keep minWindowSamples in each — whose throughput
// spread says how uneven the phase was.
func summarize(samples []sample, measured time.Duration) loadStats {
	st := loadStats{Samples: len(samples)}
	if len(samples) == 0 || measured <= 0 {
		return st
	}
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	st.QPS = float64(len(lat)) / measured.Seconds()
	st.P50ms, st.P95ms = percentile(lat, 0.50), percentile(lat, 0.95)
	if len(lat) >= p99Samples {
		st.P99ms = percentile(lat, 0.99)
	}

	w := len(samples) / minWindowSamples
	if w < 1 {
		w = 1
	}
	if w > maxWindows {
		w = maxWindows
	}
	width := measured / time.Duration(w)
	counts := make([]int, w)
	for _, s := range samples {
		i := int(s.at / width)
		if i >= w { // a reply that landed just past the deadline
			i = w - 1
		}
		counts[i]++
	}
	var qps []float64
	for _, n := range counts {
		if n > 0 {
			qps = append(qps, float64(n)/width.Seconds())
		}
	}
	st.Windows = len(qps)
	st.Spread = spread(qps)
	return st
}

// digest identifies one answer: the query, the selected databases with
// their scores and shrinkage verdicts, and the merged ranking. Scores
// enter as their IEEE-754 bits, so two planes agree only when they are
// bit-identical.
type digest [sha256.Size]byte

func answerDigest(query string, sels []repro.Selection, results []repro.Result) digest {
	h := sha256.New()
	var buf [8]byte
	str := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str(query)
	num(uint64(len(sels)))
	for _, s := range sels {
		str(s.Database)
		num(math.Float64bits(s.Score))
		if s.Shrinkage {
			num(1)
		} else {
			num(0)
		}
	}
	num(uint64(len(results)))
	for _, r := range results {
		str(r.Database)
		num(uint64(r.DocID))
		num(math.Float64bits(r.Score))
	}
	var d digest
	h.Sum(d[:0])
	return d
}

// combineDigests folds per-query digests, in query order, into the one
// value a run prints and two runs compare.
func combineDigests(ds []digest) digest {
	h := sha256.New()
	for _, d := range ds {
		h.Write(d[:])
	}
	var out digest
	h.Sum(out[:0])
	return out
}
