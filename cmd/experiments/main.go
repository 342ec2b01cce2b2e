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
// the published numbers; see EXPERIMENTS.md. The sections, and the
// spellings that select them, are experiments.Sections.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var extras []string
	for _, s := range experiments.Sections {
		if name, ok := strings.CutPrefix(s.Names[0], "extra "); ok {
			extras = append(extras, name)
		}
	}
	var (
		all     = flag.Bool("all", false, "regenerate every table and figure")
		table   = flag.Int("table", 0, "regenerate one table (1-10)")
		figure  = flag.Int("figure", 0, "regenerate one figure (4 or 5)")
		extra   = flag.String("extra", "", "extra analysis: "+strings.Join(extras, " | "))
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
		sc = experiments.SmallScale()
	}
	sc.Seed = *seed
	r := &experiments.Runner{
		Scale: sc, MaxK: *maxK, Beds: *beds, CSV: *format == "csv",
		Verbose: *verbose, Metrics: telemetry.NewRegistry(),
	}

	sections := experiments.Sections
	if !*all {
		sections = nil
		for _, name := range []string{fmt.Sprint("table ", *table), fmt.Sprint("figure ", *figure), "extra " + *extra} {
			if s, ok := experiments.Find(name); ok {
				sections = append(sections, s)
				break
			}
		}
	}
	switch {
	case len(sections) == 0 && *extra != "":
		log.Fatalf("unknown extra %q (want %s)", *extra, strings.Join(extras, " | "))
	case len(sections) == 0:
		flag.Usage()
		os.Exit(2)
	}
	if *telem {
		defer printTelemetry(r.Metrics)
	}
	for _, s := range sections {
		if err := r.Run(s, os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// printTelemetry writes the run's pipeline telemetry summary to stderr,
// then how often the paper's adaptive criterion actually fired, per
// query and per query-database decision.
func printTelemetry(reg *telemetry.Registry) {
	snap := reg.Snapshot()
	fmt.Fprintln(os.Stderr, "\npipeline telemetry:")
	fmt.Fprintln(os.Stderr, snap.Summary())
	if q := snap.Counters["adaptive_queries_total"]; q > 0 {
		shrunk := snap.Counters["adaptive_queries_shrunk_total"]
		applied := snap.Counters["adaptive_shrinkage_applied_total"]
		decided := applied + snap.Counters["adaptive_shrinkage_skipped_total"]
		fmt.Fprintf(os.Stderr,
			"selection audit: shrinkage fired on %d/%d queries (%.1f%%); %d/%d per-database decisions shrunk (%.1f%%)\n",
			shrunk, q, 100*float64(shrunk)/float64(q),
			applied, decided, 100*float64(applied)/float64(max(decided, 1)))
	}
}
