package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/selection"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// A Section is one block of cmd/experiments' output, a table, figure or
// extra analysis of the paper's Section 6. Its run writes the text; its
// shape checks that the numbers keep the direction the paper claims, or
// on a known deviation the direction the reproduction shows today.
type Section struct {
	Names []string // the flag spellings that select it: "table 4", "extra redde"
	run   func(r *Runner, out io.Writer)
	shape func(r *Runner) error
}

// Sections lists every section, in the order -all prints them.
var Sections = []Section{
	{Names: []string{"table 1", "table 2", "table 3"}, run: showcase, shape: databaseWeightLeads},
	// Tables 4-7 check the Web/QBS row without frequency estimation.
	quality(4, func(r *Runner) error { // shrinkage raises wr, of which samples already hold most
		web := r.grid(Web)[0].WR
		return errors.Join(check(web.Shrunk > web.Unshrunk, "Web/QBS wr: shrunk %v not above unshrunk %v", web.Shrunk, web.Unshrunk),
			check(web.Unshrunk >= 0.5, "Web/QBS unshrunk wr = %v, sampling looks broken", web.Unshrunk))
	}),
	quality(5, func(r *Runner) error { // shrinkage raises ur, which samples leave well short of complete
		web := r.grid(Web)[0].UR
		return errors.Join(check(web.Shrunk > web.Unshrunk, "Web/QBS ur: shrunk %v not above unshrunk %v", web.Shrunk, web.Unshrunk),
			check(web.Unshrunk <= 0.95, "Web/QBS unshrunk ur = %v; testbed too easy for the sparse-data problem", web.Unshrunk))
	}),
	quality(6, func(r *Runner) error { // a sample holds only its database's words; shrinkage costs a little wp
		web := r.grid(Web)[0].WP
		return check(web.Unshrunk == 1 && web.Shrunk >= 0.5 && web.Shrunk < 1,
			"Web/QBS wp: unshrunk %v, want 1; shrunk %v, want in [0.5, 1)", web.Unshrunk, web.Shrunk)
	}),
	quality(7, func(r *Runner) error {
		web := r.grid(Web)[0].UP
		return check(web.Unshrunk == 1, "Web/QBS unshrunk up = %v, want 1", web.Unshrunk)
	}),
	quality(8, srccShape),
	quality(9, klShape),
	{Names: []string{"figure 4"}, run: figure(figure4Panels()...), shape: coriNeverShrinksTREC4},
	{Names: []string{"figure 5"}, run: figure(fig5a, fig5b), shape: figure5Shape},
	{Names: []string{"table 10"}, run: table10, shape: table10Shape},
	{Names: []string{"extra adaptive-vs-universal"}, run: adaptiveVsUniversal, shape: universalShape},
	{Names: []string{"extra freqest-effect"}, run: freqEstEffect, shape: freqEstShape},
	{Names: []string{"extra category-weighting"}, run: categoryWeighting, shape: categoryWeightingShape},
	{Names: []string{"extra redde"}, run: redde, shape: reddeShape},
}

// check is nil when ok holds, and otherwise the error format describes.
func check(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// moved reports a known deviation (ROADMAP item 12) whose direction
// changed: EXPERIMENTS.md describes the old one.
func moved(ok bool, format string, args ...any) error {
	return check(ok, format+"; the deviation moved, update EXPERIMENTS.md", args...)
}

// Find returns the section the flag spelling name selects.
func Find(name string) (Section, bool) {
	for _, s := range Sections {
		if slices.Contains(s.Names, name) {
			return s, true
		}
	}
	return Section{}, false
}

// Runner runs sections and builds what they print, each world,
// summary set, quality grid and accuracy curve once, shared by every
// section that reads it.
type Runner struct {
	Scale   Scale
	MaxK    int                 // the largest k of the Rk curves
	Beds    string              // "Web", "TREC4" or "TREC6": Tables 4-9 over that data set only
	CSV     bool                // figures as CSV instead of aligned text
	Verbose bool                // progress through the standard logger
	Metrics *telemetry.Registry // receives the pipeline counters of every world built

	built map[string]any
}

// Run writes section s's text to out. A world or summary set that
// cannot be built is its error.
func (r *Runner) Run(s Section, out io.Writer) (err error) {
	defer catch(&err)
	s.run(r, out)
	return nil
}

// Shape checks section s's numbers, building what Run has not.
func (r *Runner) Shape(s Section) (err error) {
	defer catch(&err)
	return s.shape(r)
}

// failure carries a build error from cached out of a section.
type failure struct{ error }

func catch(err *error) {
	switch p := recover().(type) {
	case nil:
	case failure:
		*err = p.error
	default:
		panic(p)
	}
}

// cached returns what build made under key, building it on first use.
func cached[T any](r *Runner, key string, build func() (T, error)) T {
	if v, ok := r.built[key]; ok {
		return v.(T)
	}
	start := time.Now()
	v, err := build()
	if err != nil {
		panic(failure{fmt.Errorf("%s: %w", key, err)})
	}
	if r.built == nil {
		r.built = make(map[string]any)
	}
	r.built[key] = v
	r.logf("%s (%.1fs)", key, time.Since(start).Seconds())
	return v
}

func (r *Runner) logf(format string, args ...any) {
	if r.Verbose {
		log.Printf(format, args...)
	}
}

func (r *Runner) world(kind BedKind) *World {
	return cached(r, fmt.Sprintf("%v world", kind), func() (*World, error) {
		w, err := BuildWorld(kind, r.Scale)
		if err == nil {
			w.Metrics = r.Metrics
		}
		return w, err
	})
}

func (r *Runner) summaries(kind BedKind, cfg Config) *DBSummaries {
	return cached(r, fmt.Sprintf("summaries %v/%v", kind, cfg), func() (*DBSummaries, error) {
		return r.world(kind).BuildSummaries(cfg)
	})
}

// grid is one testbed's quality grid: all six metrics of Tables 4-9.
func (r *Runner) grid(kind BedKind) []QualityRow {
	return cached(r, fmt.Sprintf("quality grid %v", kind), r.world(kind).QualityGrid)
}

// accuracy is one strategy's Rk curve for one scorer and summary set.
func (r *Runner) accuracy(kind BedKind, cfg Config, scorer selection.Scorer, st Strategy) AccuracyResult {
	return cached(r, fmt.Sprintf("%v %v/%v/%s", st, kind, cfg, scorer.Name()), func() (AccuracyResult, error) {
		return r.world(kind).SelectionAccuracy(r.summaries(kind, cfg), scorer, st, r.MaxK), nil
	})
}

// curves is a figure panel's three strategies, in the order it prints.
func (r *Runner) curves(p panel) []AccuracyResult {
	cfg := Config{Sampler: p.sampler, FreqEst: true}
	return []AccuracyResult{r.accuracy(p.bed, cfg, p.scorer, Shrinkage),
		r.accuracy(p.bed, cfg, p.scorer, Hierarchical), r.accuracy(p.bed, cfg, p.scorer, Plain)}
}

var (
	scorers  = []selection.Scorer{selection.BGloss{}, selection.CORI{}, selection.LM{}}
	qbs      = Config{Sampler: QBS, FreqEst: true}
	withDocs = Config{Sampler: QBS, FreqEst: true, KeepSampleDocs: true} // ReDDE pools the samples
)

// showcase prints Tables 1-3 from the Web world.
func showcase(r *Runner, out io.Writer) {
	w := r.world(Web)
	fmt.Fprintln(out, w.Table1(6))
	fmt.Fprintln(out, FormatLambdaTable(w.Table2Lambdas(r.summaries(Web, qbs), 2)))
	fmt.Fprintln(out, w.Table3(6))
}

// databaseWeightLeads: in Table 2 the database's own summary carries
// the largest λ ("not eclipsed by the category statistics").
func databaseWeightLeads(r *Runner) error {
	var errs []error
	for _, l := range r.world(Web).Table2Lambdas(r.summaries(Web, qbs), 2) {
		top := slices.MaxFunc(l.Lambdas, func(a, b core.Lambda) int { return cmp.Compare(a.Weight, b.Weight) })
		errs = append(errs, check(top.Component == l.Database, "Table 2: %s's largest λ is %s's %.3f", l.Database, top.Component, top.Weight))
	}
	return errors.Join(errs...)
}

// quality is one of Tables 4-9, over the testbeds Runner.Beds selects.
func quality(table int, shape func(r *Runner) error) Section {
	mt := QualityMetricTitle[table]
	return Section{Names: []string{fmt.Sprint("table ", table)}, shape: shape, run: func(r *Runner, out io.Writer) {
		var rows []QualityRow
		for _, kind := range r.qualityBeds() {
			rows = append(rows, r.grid(kind)...)
		}
		fmt.Fprintln(out, FormatQualityTable(mt[1], mt[0], rows))
	}}
}

func (r *Runner) qualityBeds() []BedKind {
	beds := []BedKind{Web, TREC4, TREC6}
	for _, kind := range beds {
		if r.Beds == kind.String() {
			return []BedKind{kind}
		}
	}
	return beds
}

// srccShape pins a known deviation (ROADMAP item 12): the paper's
// Table 8 has shrinkage raise SRCC, but here, without frequency
// estimation, shrunk SRCC is below unshrunk on every row.
func srccShape(r *Runner) error {
	var errs []error
	for _, kind := range []BedKind{Web, TREC4, TREC6} {
		for _, row := range r.grid(kind) {
			errs = append(errs, moved(row.FreqEst || row.SRCC.Shrunk < row.SRCC.Unshrunk,
				"Table 8 %v/%v: shrunk SRCC %.3f not below unshrunk %.3f", kind, row.Sampler, row.SRCC.Shrunk, row.SRCC.Unshrunk))
		}
	}
	return errors.Join(errs...)
}

// klShape pins a known deviation (ROADMAP item 12): the paper's Table 9
// has shrinkage lower large KL divergences, but unshrunk KL is low here
// and on every Web row shrinkage raises it.
func klShape(r *Runner) error {
	var errs []error
	for _, row := range r.grid(Web) {
		errs = append(errs, moved(row.KL.Shrunk > row.KL.Unshrunk, "Table 9 Web/%v freq. est. %v: shrunk KL %.3f not above unshrunk %.3f",
			row.Sampler, row.FreqEst, row.KL.Shrunk, row.KL.Unshrunk))
	}
	return errors.Join(errs...)
}

// panel is one Rk-vs-k plot of a figure.
type panel struct {
	bed     BedKind
	sampler SamplerKind
	scorer  selection.Scorer
	title   string
}

// Figure 5's panels: bGlOSS over TREC4 and LM over TREC6.
var (
	fig5a = panel{TREC4, QBS, selection.BGloss{}, "Figure 5a: Rk for bGlOSS over TREC4 (QBS)"}
	fig5b = panel{TREC6, FPS, selection.LM{}, "Figure 5b: Rk for LM over TREC6 (FPS)"}
)

// figure4Panels: CORI over TREC4 and TREC6, under both samplers.
func figure4Panels() []panel {
	var panels []panel
	for _, bed := range []BedKind{TREC4, TREC6} {
		for _, s := range []SamplerKind{QBS, FPS} {
			panels = append(panels, panel{bed, s, selection.CORI{}, fmt.Sprintf("Figure 4: Rk for CORI over %v (%v)", bed, s)})
		}
	}
	return panels
}

// figure prints each panel's three curves and the paired t-test of
// Shrinkage against Plain.
func figure(panels ...panel) func(r *Runner, out io.Writer) {
	return func(r *Runner, out io.Writer) {
		for _, p := range panels {
			results := r.curves(p)
			if r.CSV {
				fmt.Fprintln(out, FormatRkCSV(p.title, results))
			} else {
				fmt.Fprintln(out, FormatRkSeries(p.title, results))
			}
			if tt, err := CompareRk(results[0], results[2]); err == nil {
				fmt.Fprintf(out, "paired t-test Shrinkage vs Plain (per-query mean Rk): t = %.2f, p = %.3g\n\n", tt.T, tt.P)
			}
		}
	}
}

// coriNeverShrinksTREC4: averaged over TREC4's long queries, CORI's
// score is never uncertain enough for the adaptive rule to shrink.
func coriNeverShrinksTREC4(r *Runner) error {
	var errs []error
	for _, p := range figure4Panels() {
		rate := r.curves(p)[0].ShrinkRate
		errs = append(errs, check(p.bed != TREC4 || rate == 0, "%s: CORI shrank %.3f of the pairs, want none", p.title, rate))
	}
	return errors.Join(errs...)
}

// figure5Shape: in Figure 5a shrinkage lifts bGlOSS above Plain, whose
// curve plateaus below 1 (bGlOSS never selects a database whose sample
// missed a query word). Figure 5b pins a known deviation (ROADMAP item
// 12): every LM strategy is already near the ceiling at k = 1, leaving
// no headroom for the paper's gap.
func figure5Shape(r *Runner) error {
	a, b := r.curves(fig5a), r.curves(fig5b)
	var errs []error
	for _, res := range append(slices.Clip(a), b...) {
		errs = append(errs, check(len(res.Rk) == r.MaxK && slices.Min(res.Rk) >= 0 && slices.Max(res.Rk) <= 1,
			"%v %s curve %v: want %d values in [0, 1]", res.Strategy, res.Algo, res.Rk, r.MaxK))
	}
	shrink, plain := a[0], a[2]
	errs = append(errs, check(plain.ShrinkRate == 0, "Figure 5a: Plain reported shrinkage rate %v", plain.ShrinkRate),
		check(stats.Mean(shrink.Rk) > stats.Mean(plain.Rk), "Figure 5a: Shrinkage mean Rk %.3f not above Plain's %.3f", stats.Mean(shrink.Rk), stats.Mean(plain.Rk)),
		check(plain.Rk[len(plain.Rk)-1] < 1, "Figure 5a: Plain R%d = %.3f, want its plateau below 1", len(plain.Rk), plain.Rk[len(plain.Rk)-1]))
	for _, res := range b {
		errs = append(errs, moved(res.Rk[0] >= 0.8, "Figure 5b: %v R1 = %.3f below 0.8", res.Strategy, res.Rk[0]))
	}
	return errors.Join(errs...)
}

// table10 prints the shrinkage application rates.
func table10(r *Runner, out io.Writer) {
	var rows []ShrinkRateRow
	for _, bed := range []BedKind{TREC4, TREC6} {
		for _, sampler := range []SamplerKind{FPS, QBS} {
			for _, scorer := range scorers {
				res := r.accuracy(bed, Config{Sampler: sampler, FreqEst: true}, scorer, Shrinkage)
				rows = append(rows, ShrinkRateRow{Bed: bed, Sampler: sampler, Algo: scorer.Name(), Rate: res.ShrinkRate})
			}
		}
	}
	fmt.Fprintln(out, FormatShrinkRateTable(rows))
}

// table10Shape: shrinkage fires for bGlOSS ≥ LM > CORI on every testbed
// and sampler, and for bGlOSS on long-query TREC4 ≥ TREC6. Ties occur at
// small scale (bGlOSS fires on every TREC4 pair), hence ≥.
func table10Shape(r *Runner) error {
	rate := func(bed BedKind, sampler SamplerKind, scorer selection.Scorer) float64 {
		return r.accuracy(bed, Config{Sampler: sampler, FreqEst: true}, scorer, Shrinkage).ShrinkRate
	}
	var errs []error
	for _, sampler := range []SamplerKind{QBS, FPS} {
		for _, bed := range []BedKind{TREC4, TREC6} {
			bg, lm, cori := rate(bed, sampler, selection.BGloss{}), rate(bed, sampler, selection.LM{}), rate(bed, sampler, selection.CORI{})
			errs = append(errs, check(bg >= lm && lm > cori, "Table 10 %v/%v: rates bGlOSS %.3f, LM %.3f, CORI %.3f; want bGlOSS ≥ LM > CORI", bed, sampler, bg, lm, cori))
		}
		t4, t6 := rate(TREC4, sampler, selection.BGloss{}), rate(TREC6, sampler, selection.BGloss{})
		errs = append(errs, check(t4 >= t6, "Table 10 bGlOSS/%v: TREC4 rate %.3f below TREC6's %.3f", sampler, t4, t6))
	}
	return errors.Join(errs...)
}

// adaptiveVsUniversal compares the adaptive rule with shrinking every
// summary (Section 6.2), per scorer.
func adaptiveVsUniversal(r *Runner, out io.Writer) {
	fmt.Fprintln(out, "Extra: adaptive vs universal application of shrinkage (TREC4, QBS; Section 6.2)")
	for _, scorer := range scorers {
		var results []AccuracyResult
		for _, st := range []Strategy{Shrinkage, Universal, Plain} {
			results = append(results, r.accuracy(TREC4, qbs, scorer, st))
		}
		fmt.Fprintln(out, FormatRkSeries(scorer.Name(), results))
	}
}

// universalShape: against the adaptive rule, universal shrinkage does
// not lower bGlOSS's mean Rk, as in the paper. For LM it pins a known
// deviation (ROADMAP item 12): the paper finds universal shrinkage
// hurts LM, and here it does not.
func universalShape(r *Runner) error {
	var errs []error
	for _, scorer := range []selection.Scorer{selection.BGloss{}, selection.LM{}} {
		a, u := stats.Mean(r.accuracy(TREC4, qbs, scorer, Shrinkage).Rk), stats.Mean(r.accuracy(TREC4, qbs, scorer, Universal).Rk)
		errs = append(errs, moved(u >= a, "%s: universal mean Rk %.3f below adaptive %.3f", scorer.Name(), u, a))
	}
	return errors.Join(errs...)
}

// freqEstEffect compares Plain selection over summaries built with and
// without frequency estimation (Section 6.2).
func freqEstEffect(r *Runner, out io.Writer) {
	fmt.Fprintln(out, "Extra: effect of frequency estimation (TREC4, QBS; Section 6.2)")
	for _, scorer := range scorers {
		var results []AccuracyResult
		for _, fe := range []bool{true, false} {
			res := r.accuracy(TREC4, Config{Sampler: QBS, FreqEst: fe}, scorer, Plain)
			res.Label = "QBS-raw"
			if fe {
				res.Label = "QBS-freqest"
			}
			results = append(results, res)
		}
		fmt.Fprintln(out, FormatRkSeries(scorer.Name()+" with vs without frequency estimation", results))
	}
}

// freqEstShape: frequency estimation helps CORI (Section 6.2).
func freqEstShape(r *Runner) error {
	with := stats.Mean(r.accuracy(TREC4, qbs, selection.CORI{}, Plain).Rk)
	without := stats.Mean(r.accuracy(TREC4, Config{Sampler: QBS}, selection.CORI{}, Plain).Rk)
	return check(with >= without, "CORI mean Rk %.3f with frequency estimation, %.3f without", with, without)
}

// weighting is the footnote-5 ablation: its text, and the differences
// in wr and ur it prints.
type weighting struct {
	text     string
	dwr, dur float64
}

func (r *Runner) weighting() weighting {
	return cached(r, "category weighting Web", func() (weighting, error) {
		var b strings.Builder
		dwr, dur := CategoryWeightingAblation(&b, r.world(Web), r.summaries(Web, qbs))
		return weighting{b.String(), dwr, dur}, nil
	})
}

func categoryWeighting(r *Runner, out io.Writer) {
	fmt.Fprintln(out, "Extra: Equation 1 vs equal-weight category summaries (footnote 5)")
	io.WriteString(out, r.weighting().text)
}

// categoryWeightingShape: footnote 5 finds the two aggregation rules
// "virtually identical".
func categoryWeightingShape(r *Runner) error {
	w := r.weighting()
	return check(math.Abs(w.dwr) <= 0.02 && math.Abs(w.dur) <= 0.02, "equal weights move wr by %+.4f and ur by %+.4f, want within 0.02", w.dwr, w.dur)
}

// reddeRk is ReDDE's curve over TREC4's QBS summaries, kept with their
// sample documents.
func (r *Runner) reddeRk() AccuracyResult {
	return cached(r, "ReDDE TREC4", func() (AccuracyResult, error) {
		return r.world(TREC4).ReDDEAccuracy(r.summaries(TREC4, withDocs), 0, r.MaxK)
	})
}

// redde compares ReDDE (Si & Callan) with CORI over the same summaries.
func redde(r *Runner, out io.Writer) {
	fmt.Fprintln(out, "Extra: ReDDE baseline (Si & Callan; the paper's footnote-9 future work) vs CORI (TREC4, QBS)")
	fmt.Fprintln(out, FormatRkSeries("ReDDE vs CORI over TREC4 (QBS summaries)", []AccuracyResult{r.reddeRk(),
		r.accuracy(TREC4, withDocs, selection.CORI{}, Shrinkage), r.accuracy(TREC4, withDocs, selection.CORI{}, Plain)}))
}

// reddeShape: ReDDE trails CORI with shrinkage on the synthetic TREC4
// bed, whose topical clusters CORI already tells apart.
func reddeShape(r *Runner) error {
	rd := stats.Mean(r.reddeRk().Rk)
	cori := stats.Mean(r.accuracy(TREC4, withDocs, selection.CORI{}, Shrinkage).Rk)
	return check(rd < cori, "ReDDE mean Rk %.3f not below CORI-Shrinkage's %.3f", rd, cori)
}
