// Command experiments regenerates the tables and figures of the paper's
// evaluation (Section 6) over the synthetic testbeds.
//
// Usage:
//
//	experiments -all                     # everything (slow: full grid)
//	experiments -table 4                 # one table (1-10)
//	experiments -figure 4                # one figure (4 or 5)
//	experiments -extra adaptive-vs-universal
//	experiments -scale small             # miniature testbeds (fast sanity run)
//	experiments -seed 7                  # different synthetic world
//
// Output is aligned text: the same rows/series the paper reports, to be
// compared in shape (who wins, by how much, where crossovers are) with
// the published numbers; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/selection"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		table   = flag.Int("table", 0, "regenerate one table (1-10)")
		figure  = flag.Int("figure", 0, "regenerate one figure (4 or 5)")
		extra   = flag.String("extra", "", "extra analysis: adaptive-vs-universal | freqest-effect | category-weighting | redde")
		scale   = flag.String("scale", "default", "testbed scale: default | small")
		seed    = flag.Int64("seed", 1, "synthetic world seed")
		maxK    = flag.Int("maxk", experiments.MaxK, "largest k for Rk curves")
		beds    = flag.String("beds", "", "restrict quality tables to one data set: Web | TREC4 | TREC6")
		format  = flag.String("format", "text", "figure output format: text | csv")
		verbose = flag.Bool("v", true, "print progress to stderr")
		telem   = flag.Bool("telemetry", true, "print a pipeline telemetry summary to stderr after the run")
	)
	flag.Parse()

	sc := experiments.DefaultScale()
	if *scale == "small" {
		sc = experiments.TestScale()
		sc.Queries = 10
	}
	sc.Seed = *seed

	r := &runner{
		scale: sc, maxK: *maxK, verbose: *verbose, bedFilter: *beds,
		csv: *format == "csv", reg: telemetry.NewRegistry(),
	}
	if *telem {
		defer func() {
			snap := r.reg.Snapshot()
			fmt.Fprintln(os.Stderr, "\npipeline telemetry:")
			fmt.Fprintln(os.Stderr, snap.Summary())
			// Audit summary: how often the paper's adaptive criterion
			// actually fired, per query and per query-database decision.
			if q := snap.Counters["adaptive_queries_total"]; q > 0 {
				shrunk := snap.Counters["adaptive_queries_shrunk_total"]
				applied := snap.Counters["adaptive_shrinkage_applied_total"]
				decided := applied + snap.Counters["adaptive_shrinkage_skipped_total"]
				fmt.Fprintf(os.Stderr,
					"selection audit: shrinkage fired on %d/%d queries (%.1f%%); %d/%d per-database decisions shrunk (%.1f%%)\n",
					shrunk, q, 100*float64(shrunk)/float64(q),
					applied, decided, 100*float64(applied)/float64(max(decided, 1)))
			}
		}()
	}

	switch {
	case *all:
		r.showcase()
		for t := 4; t <= 9; t++ {
			r.qualityTable(t)
		}
		r.figures(4)
		r.figures(5)
		r.table10()
		r.extras("adaptive-vs-universal")
		r.extras("freqest-effect")
		r.extras("category-weighting")
		r.extras("redde")
	case *table >= 1 && *table <= 3:
		r.showcase()
	case *table >= 4 && *table <= 9:
		r.qualityTable(*table)
	case *table == 10:
		r.table10()
	case *figure == 4 || *figure == 5:
		r.figures(*figure)
	case *extra != "":
		r.extras(*extra)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runner caches worlds and summary sets across experiments.
type runner struct {
	scale     experiments.Scale
	maxK      int
	verbose   bool
	bedFilter string
	csv       bool

	reg *telemetry.Registry

	worlds map[experiments.BedKind]*experiments.World
	sums   map[string]*experiments.DBSummaries
	grids  map[experiments.BedKind][]experiments.QualityRow
}

func (r *runner) logf(format string, args ...interface{}) {
	if r.verbose {
		log.Printf(format, args...)
	}
}

func (r *runner) world(kind experiments.BedKind) *experiments.World {
	if r.worlds == nil {
		r.worlds = make(map[experiments.BedKind]*experiments.World)
	}
	if w, ok := r.worlds[kind]; ok {
		return w
	}
	start := time.Now()
	w, err := experiments.BuildWorld(kind, r.scale)
	if err != nil {
		log.Fatalf("building %v world: %v", kind, err)
	}
	w.Metrics = r.reg
	r.logf("built %v world: %d databases, %d docs, %d queries (%.1fs)",
		kind, len(w.Bed.Databases), w.Bed.TotalDocs(), len(w.Bed.Queries),
		time.Since(start).Seconds())
	r.worlds[kind] = w
	return w
}

func (r *runner) summaries(kind experiments.BedKind, cfg experiments.Config) *experiments.DBSummaries {
	if r.sums == nil {
		r.sums = make(map[string]*experiments.DBSummaries)
	}
	key := fmt.Sprintf("%v/%v", kind, cfg)
	if s, ok := r.sums[key]; ok {
		return s
	}
	w := r.world(kind)
	start := time.Now()
	s, err := w.BuildSummaries(cfg)
	if err != nil {
		log.Fatalf("building summaries %s: %v", key, err)
	}
	r.logf("built summaries %s (%.1fs)", key, time.Since(start).Seconds())
	r.sums[key] = s
	return s
}

func (r *runner) qualityBeds() []experiments.BedKind {
	switch r.bedFilter {
	case "Web":
		return []experiments.BedKind{experiments.Web}
	case "TREC4":
		return []experiments.BedKind{experiments.TREC4}
	case "TREC6":
		return []experiments.BedKind{experiments.TREC6}
	}
	return []experiments.BedKind{experiments.Web, experiments.TREC4, experiments.TREC6}
}

// qualityTable regenerates one of Tables 4-9. One quality grid per
// testbed carries all six metrics, so grids are computed once and
// shared across the tables.
func (r *runner) qualityTable(t int) {
	mt := experiments.QualityMetricTitle[t]
	var rows []experiments.QualityRow
	for _, kind := range r.qualityBeds() {
		rows = append(rows, r.grid(kind)...)
	}
	fmt.Println(experiments.FormatQualityTable(mt[1], mt[0], rows))
}

func (r *runner) grid(kind experiments.BedKind) []experiments.QualityRow {
	if r.grids == nil {
		r.grids = make(map[experiments.BedKind][]experiments.QualityRow)
	}
	if g, ok := r.grids[kind]; ok {
		return g
	}
	w := r.world(kind)
	start := time.Now()
	grid, err := w.QualityGrid()
	if err != nil {
		log.Fatalf("quality grid for %v: %v", kind, err)
	}
	r.logf("quality grid %v done (%.1fs)", kind, time.Since(start).Seconds())
	r.grids[kind] = grid
	return grid
}

// showcase prints Tables 1-3 from the Web world.
func (r *runner) showcase() {
	w := r.world(experiments.Web)
	fmt.Println(w.Table1(6))
	sums := r.summaries(experiments.Web, experiments.Config{Sampler: experiments.QBS, FreqEst: true})
	fmt.Println(experiments.FormatLambdaTable(w.Table2Lambdas(sums, 2)))
	fmt.Println(w.Table3(6))
}

// figures regenerates Figure 4 (CORI over TREC4+TREC6) or Figure 5
// (bGlOSS over TREC4, LM over TREC6).
func (r *runner) figures(f int) {
	type panel struct {
		bed     experiments.BedKind
		sampler experiments.SamplerKind
		scorer  selection.Scorer
		title   string
	}
	var panels []panel
	if f == 4 {
		for _, bed := range []experiments.BedKind{experiments.TREC4, experiments.TREC6} {
			for _, s := range []experiments.SamplerKind{experiments.QBS, experiments.FPS} {
				panels = append(panels, panel{bed, s, selection.CORI{},
					fmt.Sprintf("Figure 4: Rk for CORI over %v (%v)", bed, s)})
			}
		}
	} else {
		panels = []panel{
			{experiments.TREC4, experiments.QBS, selection.BGloss{}, "Figure 5a: Rk for bGlOSS over TREC4 (QBS)"},
			{experiments.TREC6, experiments.FPS, selection.LM{}, "Figure 5b: Rk for LM over TREC6 (FPS)"},
		}
	}
	for _, p := range panels {
		w := r.world(p.bed)
		sums := r.summaries(p.bed, experiments.Config{Sampler: p.sampler, FreqEst: true})
		start := time.Now()
		results := w.AccuracySweep(sums, p.scorer, r.maxK)
		r.logf("%s done (%.1fs)", p.title, time.Since(start).Seconds())
		fmt.Println(r.formatSeries(p.title, results))
		if tt, err := experiments.CompareRk(results[0], results[2]); err == nil {
			fmt.Printf("paired t-test Shrinkage vs Plain (per-query mean Rk): t = %.2f, p = %.3g\n\n", tt.T, tt.P)
		}
	}
}

// table10 regenerates the shrinkage application rates.
func (r *runner) table10() {
	var rows []experiments.ShrinkRateRow
	for _, bed := range []experiments.BedKind{experiments.TREC4, experiments.TREC6} {
		w := r.world(bed)
		for _, sampler := range []experiments.SamplerKind{experiments.FPS, experiments.QBS} {
			sums := r.summaries(bed, experiments.Config{Sampler: sampler, FreqEst: true})
			for _, scorer := range []selection.Scorer{selection.BGloss{}, selection.CORI{}, selection.LM{}} {
				res := w.SelectionAccuracy(sums, scorer, experiments.Shrinkage, r.maxK)
				rows = append(rows, experiments.ShrinkRateRow{
					Bed: bed, Sampler: sampler, Algo: scorer.Name(), Rate: res.ShrinkRate,
				})
				r.logf("table 10: %v/%v/%s rate %.1f%%", bed, sampler, scorer.Name(), 100*res.ShrinkRate)
			}
		}
	}
	fmt.Println(experiments.FormatShrinkRateTable(rows))
}

// extras runs the additional analyses discussed in Section 6.2 and the
// DESIGN.md ablations.
func (r *runner) extras(name string) {
	switch name {
	case "adaptive-vs-universal":
		fmt.Println("Extra: adaptive vs universal application of shrinkage (TREC4, QBS; Section 6.2)")
		w := r.world(experiments.TREC4)
		sums := r.summaries(experiments.TREC4, experiments.Config{Sampler: experiments.QBS, FreqEst: true})
		for _, scorer := range []selection.Scorer{selection.BGloss{}, selection.CORI{}, selection.LM{}} {
			var results []experiments.AccuracyResult
			for _, st := range []experiments.Strategy{experiments.Shrinkage, experiments.Universal, experiments.Plain} {
				results = append(results, w.SelectionAccuracy(sums, scorer, st, r.maxK))
			}
			fmt.Println(experiments.FormatRkSeries(scorer.Name(), results))
		}
	case "freqest-effect":
		fmt.Println("Extra: effect of frequency estimation (TREC4, QBS; Section 6.2)")
		w := r.world(experiments.TREC4)
		for _, scorer := range []selection.Scorer{selection.BGloss{}, selection.CORI{}, selection.LM{}} {
			var results []experiments.AccuracyResult
			for _, fe := range []bool{true, false} {
				sums := r.summaries(experiments.TREC4, experiments.Config{Sampler: experiments.QBS, FreqEst: fe})
				res := w.SelectionAccuracy(sums, scorer, experiments.Plain, r.maxK)
				res.Label = "QBS-raw"
				if fe {
					res.Label = "QBS-freqest"
				}
				results = append(results, res)
			}
			fmt.Println(experiments.FormatRkSeries(scorer.Name()+" with vs without frequency estimation", results))
		}
	case "category-weighting":
		fmt.Println("Extra: Equation 1 vs equal-weight category summaries (footnote 5)")
		experiments.CategoryWeightingAblation(os.Stdout, r.world(experiments.Web),
			r.summaries(experiments.Web, experiments.Config{Sampler: experiments.QBS, FreqEst: true}))
	case "redde":
		fmt.Println("Extra: ReDDE baseline (Si & Callan; the paper's footnote-9 future work) vs CORI (TREC4, QBS)")
		w := r.world(experiments.TREC4)
		sums := r.summaries(experiments.TREC4, experiments.Config{
			Sampler: experiments.QBS, FreqEst: true, KeepSampleDocs: true,
		})
		redde, err := w.ReDDEAccuracy(sums, 0, r.maxK)
		if err != nil {
			log.Fatalf("redde: %v", err)
		}
		results := []experiments.AccuracyResult{
			redde,
			w.SelectionAccuracy(sums, selection.CORI{}, experiments.Shrinkage, r.maxK),
			w.SelectionAccuracy(sums, selection.CORI{}, experiments.Plain, r.maxK),
		}
		fmt.Println(experiments.FormatRkSeries("ReDDE vs CORI over TREC4 (QBS summaries)", results))
	default:
		log.Fatalf("unknown extra %q", name)
	}
}

// formatSeries renders a figure panel in the selected output format.
func (r *runner) formatSeries(title string, results []experiments.AccuracyResult) string {
	if r.csv {
		return experiments.FormatRkCSV(title, results)
	}
	return experiments.FormatRkSeries(title, results)
}
