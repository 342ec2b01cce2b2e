package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/selection"
	"repro/internal/stats"
)

// CategoryWeightingAblation compares the two category-summary
// aggregation rules of Definition 3: Equation 1 (databases weighted by
// |D̂|) versus the footnote-5 alternative (equal weights). The paper
// reports the two produced "virtually identical" results; this ablation
// quantifies that claim on the reproduction testbed by re-shrinking all
// databases under each rule and comparing summary quality. It returns
// the differences it prints, equal weights minus Equation 1.
func CategoryWeightingAblation(out io.Writer, w *World, sums *DBSummaries) (dwr, dur float64) {
	measure := func(shrunk []*core.ShrunkSummary) (wr, ur float64) {
		var wrs, urs []float64
		for i, ss := range shrunk {
			truth := w.Truth[i]
			if truth.Len() == 0 {
				continue
			}
			sh := ss.Materialize(1)
			wrs = append(wrs, metrics.WeightedRecall(truth, sh))
			urs = append(urs, metrics.UnweightedRecall(truth, sh))
		}
		return stats.Mean(wrs), stats.Mean(urs)
	}

	// sums were derived under Equation 1; re-derive under equal weights.
	equal := selection.Derive(w.Bed.Tree, sums.sources(w), core.EqualWeighted, nil, nil)
	wrSize, urSize := measure(sums.Shrunk)
	wrEq, urEq := measure(equal.Shrunk)
	fmt.Fprintf(out, "%-24s %8s %8s\n", "Aggregation", "wr", "ur")
	fmt.Fprintf(out, "%-24s %8.3f %8.3f\n", "Equation 1 (by size)", wrSize, urSize)
	fmt.Fprintf(out, "%-24s %8.3f %8.3f\n", "Equal weights (fn. 5)", wrEq, urEq)
	fmt.Fprintf(out, "difference: wr %+0.4f, ur %+0.4f\n", wrEq-wrSize, urEq-urSize)
	return wrEq - wrSize, urEq - urSize
}
