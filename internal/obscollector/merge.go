package obscollector

import (
	"math"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// GaugeRollup is one gauge across the fleet. Gauges do not sum
// meaningfully in general (an inflight count does, a vocabulary size
// does not), so the rollup reports the spread and leaves interpretation
// to the reader.
type GaugeRollup struct {
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	Sum       float64 `json:"sum"`
	Instances int     `json:"instances"`
}

// Rollup is the cluster-wide aggregate of every member's snapshot:
// counters summed, equal-bounds histograms merged bucket-wise (their
// exemplars pooled and re-capped, so the cluster tail keeps its trace
// links), gauges as min/max/sum. A series whose totals would overflow is
// left out and named.
type Rollup struct {
	Counters   map[string]int64                       `json:"counters"`
	Gauges     map[string]GaugeRollup                 `json:"gauges"`
	Histograms map[string]telemetry.HistogramSnapshot `json:"histograms"`
	// SkewedHistograms names histograms excluded from the rollup
	// because members disagreed on bucket bounds, one member served
	// a malformed one (merging those would fabricate counts, rendering
	// them would index past their counts), or their totals overflowed.
	// Should be empty in a homogeneous fleet.
	SkewedHistograms []string `json:"skewed_histograms,omitempty"`
	// Overflowed names counters and gauges excluded from the rollup
	// because their sum across members overflowed: an int64 counter sum
	// would wrap, and a gauge sum that is not finite has no JSON
	// encoding.
	Overflowed []string          `json:"overflowed,omitempty"`
	Help       map[string]string `json:"help,omitempty"`
}

// ClusterMetrics is the /debug/cluster/metrics payload: the rollup plus
// every member's own snapshot.
type ClusterMetrics struct {
	ScrapedAt time.Time        `json:"scraped_at"`
	Cluster   Rollup           `json:"cluster"`
	Instances []*InstanceState `json:"instances"`
}

// Aggregate builds the cluster rollup from the members' latest states.
// Members whose last scrape failed still contribute their stale
// snapshot (flagged via InstanceState.Err); members never scraped
// contribute nothing.
func Aggregate(states map[string]*InstanceState) ClusterMetrics {
	out := ClusterMetrics{
		ScrapedAt: time.Now(),
		Cluster: Rollup{
			Counters:   map[string]int64{},
			Gauges:     map[string]GaugeRollup{},
			Histograms: map[string]telemetry.HistogramSnapshot{},
			Help:       map[string]string{},
		},
	}
	skewed, overflowed := map[string]bool{}, map[string]bool{}
	names := make([]string, 0, len(states))
	for name := range states {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := states[name]
		out.Instances = append(out.Instances, st)
		snap := st.Metrics
		for n, v := range snap.Counters {
			if overflowed[n] {
				continue
			}
			sum := out.Cluster.Counters[n]
			if v > 0 && sum > math.MaxInt64-v || v < 0 && sum < math.MinInt64-v {
				overflowed[n] = true
				delete(out.Cluster.Counters, n)
				continue
			}
			out.Cluster.Counters[n] = sum + v
		}
		for n, v := range snap.Gauges {
			if overflowed[n] {
				continue
			}
			g, ok := out.Cluster.Gauges[n]
			if !ok {
				g = GaugeRollup{Min: v, Max: v}
			}
			if v < g.Min {
				g.Min = v
			}
			if v > g.Max {
				g.Max = v
			}
			g.Sum += v
			g.Instances++
			if math.IsInf(g.Sum, 0) || math.IsNaN(g.Sum) {
				overflowed[n] = true
				delete(out.Cluster.Gauges, n)
				continue
			}
			out.Cluster.Gauges[n] = g
		}
		for n, h := range snap.Histograms {
			if skewed[n] {
				continue
			}
			if !wellFormed(h) {
				skewed[n] = true
				delete(out.Cluster.Histograms, n)
				continue
			}
			cur, ok := out.Cluster.Histograms[n]
			if !ok {
				out.Cluster.Histograms[n] = copyHistogram(h)
				continue
			}
			merged, ok := mergeHistograms(cur, h)
			if !ok {
				skewed[n] = true
				delete(out.Cluster.Histograms, n)
				continue
			}
			out.Cluster.Histograms[n] = merged
		}
		for n, help := range snap.Help {
			if out.Cluster.Help[n] == "" {
				out.Cluster.Help[n] = help
			}
		}
	}
	for n := range skewed {
		out.Cluster.SkewedHistograms = append(out.Cluster.SkewedHistograms, n)
	}
	sort.Strings(out.Cluster.SkewedHistograms)
	for n := range overflowed {
		out.Cluster.Overflowed = append(out.Cluster.Overflowed, n)
	}
	sort.Strings(out.Cluster.Overflowed)
	return out
}

// wellFormed reports whether h is a histogram a registry could have
// written: one count per bound plus the +Inf bucket, strictly increasing
// bounds, no negative count, an (unoverflowed) bucket sum, and a Count
// no greater than that sum. A member serves its snapshot over the
// network, so none of this is given. Count may trail the buckets: a
// registry snapshot is not atomic, and reads Count before the buckets
// that Observe fills first, so a member scraped while it observes
// serves a bucket sum above its Count.
func wellFormed(h telemetry.HistogramSnapshot) bool {
	if len(h.Counts) != len(h.Bounds)+1 {
		return false
	}
	for i := 1; i < len(h.Bounds); i++ {
		if !(h.Bounds[i] > h.Bounds[i-1]) {
			return false
		}
	}
	var total int64
	for _, c := range h.Counts {
		if c < 0 || total > math.MaxInt64-c {
			return false
		}
		total += c
	}
	return 0 <= h.Count && h.Count <= total
}

func copyHistogram(h telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	out := telemetry.HistogramSnapshot{
		Bounds:    append([]float64(nil), h.Bounds...),
		Counts:    append([]int64(nil), h.Counts...),
		Sum:       h.Sum,
		Count:     h.Count,
		Exemplars: append([]telemetry.Exemplar(nil), h.Exemplars...),
	}
	return out
}

// mergeHistograms adds b into a bucket-wise. Reports false when the two
// disagree on bounds — counts from different layouts cannot be merged
// without fabricating data — or when a total overflowed: a count wraps
// negative, and a +Inf sum has no JSON encoding.
func mergeHistograms(a, b telemetry.HistogramSnapshot) (telemetry.HistogramSnapshot, bool) {
	if len(a.Bounds) != len(b.Bounds) || len(a.Counts) != len(b.Counts) {
		return a, false
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return a, false
		}
	}
	for i := range b.Counts {
		a.Counts[i] += b.Counts[i]
	}
	a.Sum += b.Sum
	a.Count += b.Count
	a.Exemplars = mergeExemplars(a.Exemplars, b.Exemplars)
	// Both were well formed, so an overflowed count is negative here.
	return a, wellFormed(a) && !math.IsInf(a.Sum, 0)
}

// mergeExemplars pools two exemplar sets and keeps the ExemplarCap
// largest, value descending — the cluster-wide tail.
func mergeExemplars(a, b []telemetry.Exemplar) []telemetry.Exemplar {
	out := append(append([]telemetry.Exemplar(nil), a...), b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Value > out[j].Value })
	if len(out) > telemetry.ExemplarCap {
		out = out[:telemetry.ExemplarCap]
	}
	return out
}
