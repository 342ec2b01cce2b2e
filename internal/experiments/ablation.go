package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// CategoryWeightingAblation compares the two category-summary
// aggregation rules of Definition 3: Equation 1 (databases weighted by
// |D̂|) versus the footnote-5 alternative (equal weights). The paper
// reports the two produced "virtually identical" results; this ablation
// quantifies that claim on the reproduction testbed by re-shrinking all
// databases under each rule and comparing summary quality.
func CategoryWeightingAblation(out io.Writer, w *World, sums *DBSummaries) {
	classified := sums.Classified(w)

	measure := func(weighting core.Weighting) (wr, ur float64) {
		cats := core.BuildCategorySummaries(w.Bed.Tree, classified, weighting)
		var wrs, urs []float64
		for i := range classified {
			truth := w.Truth[i]
			if truth.Len() == 0 {
				continue
			}
			sh := core.Shrink(cats, classified[i], core.ShrinkOptions{}).Materialize(1)
			wrs = append(wrs, metrics.WeightedRecall(truth, sh))
			urs = append(urs, metrics.UnweightedRecall(truth, sh))
		}
		return stats.Mean(wrs), stats.Mean(urs)
	}

	wrSize, urSize := measure(core.SizeWeighted)
	wrEq, urEq := measure(core.EqualWeighted)
	fmt.Fprintf(out, "%-24s %8s %8s\n", "Aggregation", "wr", "ur")
	fmt.Fprintf(out, "%-24s %8.3f %8.3f\n", "Equation 1 (by size)", wrSize, urSize)
	fmt.Fprintf(out, "%-24s %8.3f %8.3f\n", "Equal weights (fn. 5)", wrEq, urEq)
	fmt.Fprintf(out, "difference: wr %+0.4f, ur %+0.4f\n", wrEq-wrSize, urEq-urSize)
}
