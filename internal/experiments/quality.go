package experiments

import (
	"math"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// QualityCell aggregates one content-summary quality metric over the
// databases of a testbed.
type QualityCell struct {
	Shrunk   float64 // shrinkage applied
	Unshrunk float64 // plain sample summary
	// P is the paired t-test p-value of the per-database difference
	// (shrunk vs unshrunk); the paper reports significance at 0.01%.
	P float64
}

// QualityRow is one row of Tables 4-9: a (testbed, sampler, frequency
// estimation) configuration with all six metrics.
type QualityRow struct {
	Bed     BedKind
	Sampler SamplerKind
	FreqEst bool
	WR      QualityCell // Table 4: weighted recall
	UR      QualityCell // Table 5: unweighted recall
	WP      QualityCell // Table 6: weighted precision
	UP      QualityCell // Table 7: unweighted precision
	SRCC    QualityCell // Table 8: Spearman rank correlation
	KL      QualityCell // Table 9: KL divergence
	Runs    int
}

// Quality evaluates content-summary quality for one (sampler, freqest)
// configuration, averaging over the world's configured number of
// sampling runs (the paper averages QBS over five samples).
func (w *World) Quality(sampler SamplerKind, freqEst bool) (QualityRow, error) {
	runs := 1
	if sampler == QBS {
		runs = w.Scale.QBSRuns
	}
	row := QualityRow{Bed: w.Kind, Sampler: sampler, FreqEst: freqEst, Runs: runs}

	// Per-database metric values pooled across runs, paired
	// shrunk/unshrunk for the significance tests.
	type pair struct{ sh, un []float64 }
	var wr, ur, wp, up, srcc, kl pair

	for run := 0; run < runs; run++ {
		sums, err := w.BuildSummaries(Config{Sampler: sampler, FreqEst: freqEst, Run: run})
		if err != nil {
			return row, err
		}
		for i := range w.Bed.Databases {
			truth := w.Truth[i]
			if truth.Len() == 0 {
				continue
			}
			// A database whose sampling produced no documents has no
			// summary to evaluate (the paper's samplers always retrieve
			// something); skip rather than score phantom zeros.
			if sums.Unshrunk[i].Len() == 0 {
				continue
			}
			un := metrics.ApplyRoundRule(sums.Unshrunk[i])
			sh := sums.Shrunk[i].Materialize(1)

			wr.sh = append(wr.sh, metrics.WeightedRecall(truth, sh))
			wr.un = append(wr.un, metrics.WeightedRecall(truth, un))
			ur.sh = append(ur.sh, metrics.UnweightedRecall(truth, sh))
			ur.un = append(ur.un, metrics.UnweightedRecall(truth, un))
			wp.sh = append(wp.sh, metrics.WeightedPrecision(truth, sh))
			wp.un = append(wp.un, metrics.WeightedPrecision(truth, un))
			up.sh = append(up.sh, metrics.UnweightedPrecision(truth, sh))
			up.un = append(up.un, metrics.UnweightedPrecision(truth, un))
			srcc.sh = append(srcc.sh, metrics.SRCC(truth, sh))
			srcc.un = append(srcc.un, metrics.SRCC(truth, un))
			if kSh, kUn := metrics.KL(truth, sh), metrics.KL(truth, un); !math.IsInf(kSh, 0) && !math.IsInf(kUn, 0) {
				kl.sh = append(kl.sh, kSh)
				kl.un = append(kl.un, kUn)
			}
		}
	}

	cell := func(p pair) QualityCell {
		c := QualityCell{Shrunk: stats.Mean(p.sh), Unshrunk: stats.Mean(p.un), P: 1}
		if res, err := stats.PairedTTest(p.sh, p.un); err == nil {
			c.P = res.P
		}
		return c
	}
	row.WR = cell(wr)
	row.UR = cell(ur)
	row.WP = cell(wp)
	row.UP = cell(up)
	row.SRCC = cell(srcc)
	row.KL = cell(kl)
	return row, nil
}

// QualityGrid runs Quality over the full 2×2 sampler × freqest grid,
// producing the four rows each testbed contributes to Tables 4-9.
func (w *World) QualityGrid() ([]QualityRow, error) {
	var rows []QualityRow
	for _, sampler := range []SamplerKind{QBS, FPS} {
		for _, fe := range []bool{false, true} {
			row, err := w.Quality(sampler, fe)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
