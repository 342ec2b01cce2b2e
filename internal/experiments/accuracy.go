package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/selection"
	"repro/internal/stats"
)

// Strategy is a database selection strategy of Section 6.2.
type Strategy int

const (
	// Plain scores with the unshrunk summaries (QBS-Plain / FPS-Plain).
	Plain Strategy = iota
	// Shrinkage is the paper's adaptive algorithm (Figure 3):
	// per query and per database, shrinkage is applied only when the
	// score distribution is too uncertain.
	Shrinkage
	// Hierarchical is the baseline of Ipeirotis & Gravano [17].
	Hierarchical
	// Universal always uses the shrunk summaries (the "adaptive vs
	// universal" analysis of Section 6.2).
	Universal
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Plain:
		return "Plain"
	case Shrinkage:
		return "Shrinkage"
	case Hierarchical:
		return "Hierarchical"
	case Universal:
		return "Universal"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// AccuracyResult is one curve of Figures 4-5: the mean Rk over the
// query workload for k = 1..MaxK, plus the shrinkage application rate
// of Table 10 (meaningful for the Shrinkage strategy).
type AccuracyResult struct {
	Bed      BedKind
	Sampler  SamplerKind
	Algo     string
	Strategy Strategy
	// Rk[k-1] is the mean Rk over queries.
	Rk []float64
	// ShrinkRate is the fraction of query-database pairs for which
	// shrinkage was applied (Table 10).
	ShrinkRate float64
	// Label overrides the series caption when set (used for
	// cross-algorithm comparisons like ReDDE).
	Label string
	// PerQueryMeanRk holds, per query, the mean Rk over k = 1..maxK —
	// the paired samples behind the paper's significance tests
	// ("QBS-Shrinkage improves over QBS-Plain ... statistically
	// significant (p < 0.05)", Section 6.2).
	PerQueryMeanRk []float64
}

// SeriesLabel is the caption used in figure output.
func (r AccuracyResult) SeriesLabel() string {
	if r.Label != "" {
		return r.Label
	}
	return fmt.Sprintf("%v-%v", r.Sampler, r.Strategy)
}

// MaxK is the largest k the paper's figures report.
const MaxK = 20

// SelectionAccuracy evaluates one (summaries, scorer, strategy)
// combination over the world's query workload.
func (w *World) SelectionAccuracy(sums *DBSummaries, scorer selection.Scorer, strategy Strategy, maxK int) AccuracyResult {
	res := AccuracyResult{
		Bed:      w.Kind,
		Sampler:  sums.Config.Sampler,
		Algo:     scorer.Name(),
		Strategy: strategy,
		Rk:       make([]float64, maxK),
	}
	unshrunk := make([]selection.Entry, len(sums.DBs))
	shrunk := make([]selection.Entry, len(sums.DBs))
	for i, db := range sums.DBs {
		unshrunk[i] = selection.Entry{Name: db.Name, View: db.Unshrunk}
		shrunk[i] = selection.Entry{Name: db.Name, View: db.Shrunk}
	}
	flat := func(entries []selection.Entry) func(q []string) []selection.Ranked {
		return func(q []string) []selection.Ranked {
			return selection.Rank(scorer, q, entries, selection.NewContext(q, entries, sums.Root))
		}
	}
	rank := func([]string) []selection.Ranked { return nil }
	var applied, pairs int
	switch strategy {
	case Plain:
		rank = flat(unshrunk)
	case Universal:
		rank = flat(shrunk)
	case Hierarchical:
		hier := selection.NewHierarchical(scorer, sums.Cats, sums.Classified(w))
		rank = func(q []string) []selection.Ranked {
			return hier.Rank(q, selection.NewContext(q, unshrunk, sums.Root))
		}
	case Shrinkage:
		adaptive := &selection.Adaptive{Base: scorer, Metrics: w.Metrics}
		rank = func(q []string) []selection.Ranked {
			ranked, decisions := adaptive.Rank(q, sums.DBs, sums.Root)
			for _, d := range decisions {
				pairs++
				if d.Shrinkage {
					applied++
				}
			}
			return ranked
		}
	}
	w.rkCurve(&res, rank)
	if pairs > 0 {
		res.ShrinkRate = float64(applied) / float64(pairs)
	}
	return res
}

// rkCurve fills res.Rk — the mean Rk over the query workload for
// k = 1..len(res.Rk) — and res.PerQueryMeanRk from rank, one selection
// algorithm's ranking of a query's words.
func (w *World) rkCurve(res *AccuracyResult, rank func(q []string) []selection.Ranked) {
	for qi, q := range w.Bed.Queries {
		ranked := rank(q.Terms)
		idx := make([]int, len(ranked))
		for i, r := range ranked {
			idx[i] = r.Index
		}
		curve := metrics.RkCurve(w.Relevant[qi], idx, len(res.Rk))
		var qMean float64
		for k := range curve {
			res.Rk[k] += curve[k]
			qMean += curve[k]
		}
		res.PerQueryMeanRk = append(res.PerQueryMeanRk, qMean/float64(len(curve)))
	}
	if nq := len(w.Bed.Queries); nq > 0 {
		for k := range res.Rk {
			res.Rk[k] /= float64(nq)
		}
	}
}

// CompareRk runs the paired t-test between two strategies' per-query
// mean Rk values (the Section 6.2 significance analysis). Both results
// must come from the same world and query workload.
func CompareRk(a, b AccuracyResult) (stats.TTestResult, error) {
	return stats.PairedTTest(a.PerQueryMeanRk, b.PerQueryMeanRk)
}

// ReDDEAccuracy evaluates the ReDDE selection algorithm of Si & Callan
// over the world's query workload — the algorithm the paper's
// footnote 9 names as future work to combine with shrinkage. The
// summaries must have been built with Config.KeepSampleDocs. ratio 0
// selects ReDDE's default.
func (w *World) ReDDEAccuracy(sums *DBSummaries, ratio float64, maxK int) (AccuracyResult, error) {
	if sums.SampleDocs == nil {
		return AccuracyResult{}, fmt.Errorf("experiments: summaries built without KeepSampleDocs")
	}
	samples := make([]selection.ReDDESample, len(w.Bed.Databases))
	for i, db := range w.Bed.Databases {
		samples[i] = selection.ReDDESample{
			Name: db.Name,
			Docs: sums.SampleDocs[i],
			Size: sums.SizeEst[i],
		}
	}
	redde, err := selection.NewReDDE(samples, ratio)
	if err != nil {
		return AccuracyResult{}, err
	}
	res := AccuracyResult{
		Bed:     w.Kind,
		Sampler: sums.Config.Sampler,
		Algo:    redde.Name(),
		Label:   fmt.Sprintf("%v-ReDDE", sums.Config.Sampler),
		Rk:      make([]float64, maxK),
	}
	w.rkCurve(&res, redde.Rank)
	return res, nil
}
