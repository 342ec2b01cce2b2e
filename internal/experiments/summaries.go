package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/freqest"
	"repro/internal/hierarchy"
	"repro/internal/pool"
	"repro/internal/sampling"
	"repro/internal/selection"
	"repro/internal/summary"
	"repro/internal/synth"
)

// SamplerKind selects the content-summary construction strategy.
type SamplerKind int

const (
	// QBS is query-based sampling (Callan & Connell).
	QBS SamplerKind = iota
	// FPS is focused probing (Ipeirotis & Gravano).
	FPS
)

// String implements fmt.Stringer.
func (k SamplerKind) String() string {
	if k == FPS {
		return "FPS"
	}
	return "QBS"
}

// Config is one summary-construction configuration of the evaluation
// grid (Section 5.2).
type Config struct {
	Sampler SamplerKind
	// FreqEst enables the Appendix A frequency estimation plus
	// sample–resample size estimation.
	FreqEst bool
	// Run distinguishes repeated sampling runs (the paper averages QBS
	// results over five samples; runs differ only in sampling seeds).
	Run int
	// KeepSampleDocs retains the raw sampled documents per database
	// (needed by sample-pooling algorithms such as ReDDE).
	KeepSampleDocs bool
}

// String implements fmt.Stringer.
func (c Config) String() string {
	fe := "raw"
	if c.FreqEst {
		fe = "freqest"
	}
	docs := ""
	if c.KeepSampleDocs {
		docs = "+docs"
	}
	return fmt.Sprintf("%v/%s/run%d%s", c.Sampler, fe, c.Run, docs)
}

// DBSummaries holds, for one configuration, everything database
// selection needs: the per-database approximate summaries, the
// classification used, the Appendix B statistics for the adaptive
// algorithm, and the offline derivation over them (category summaries,
// root summary, shrunk summaries, Figure 3's inputs) — the same
// selection.Derive the metasearcher serves from.
type DBSummaries struct {
	Config   Config
	Unshrunk []*summary.Summary
	Class    []hierarchy.NodeID
	// SizeEst is the sample–resample database size estimate (always
	// computed; the raw configurations keep |D̂| = |S| in the summary
	// but the adaptive uncertainty model still needs |D|).
	SizeEst []float64
	// Gamma is the per-database frequency power-law exponent γ = 1/α−1.
	Gamma []float64
	// SampleDocs holds each database's sampled documents when the
	// configuration requested them (Config.KeepSampleDocs).
	SampleDocs [][][]string

	*selection.Derived
}

// BuildSummaries runs the configured sampler against every database of
// the world and assembles the shrinkage machinery on top: probe-based
// classification where the paper uses it, category summaries
// (Definition 3), and per-database shrunk summaries via EM (Figure 2).
func (w *World) BuildSummaries(cfg Config) (*DBSummaries, error) {
	n := len(w.Bed.Databases)
	out := &DBSummaries{
		Config:   cfg,
		Unshrunk: make([]*summary.Summary, n),
		Class:    make([]hierarchy.NodeID, n),
		SizeEst:  make([]float64, n),
		Gamma:    make([]float64, n),
	}
	seed := synth.SubSeed(w.Scale.Seed, 100, int64(cfg.Sampler), int64(cfg.Run))
	if cfg.KeepSampleDocs {
		out.SampleDocs = make([][][]string, n)
	}

	// one processes a single database: sample, classify, estimate. Each
	// database's randomness derives from its own sub-seed, so the result
	// is identical whether databases are processed sequentially or
	// concurrently.
	one := func(i int) error {
		db := w.Bed.Databases[i]
		searcher := sampling.IndexSearcher{Ix: db.Index}
		var sample *sampling.Sample
		var class hierarchy.NodeID
		var err error
		switch cfg.Sampler {
		case QBS:
			sample, err = sampling.QBS(context.Background(), searcher, sampling.QBSConfig{
				TargetDocs:  w.Scale.SampleTarget,
				SeedLexicon: w.Lexicon,
				Seed:        synth.SubSeed(seed, int64(i)),
				Metrics:     w.Metrics,
			})
			if err != nil {
				return fmt.Errorf("QBS over %s: %w", db.Name, err)
			}
			// QBS has no classification of its own: the Web testbed
			// uses the directory's (true) classification, the TREC
			// testbeds use probe-based classification (Section 5.2).
			if w.Kind == Web {
				class = db.Category
			} else {
				class = w.Classifier.ClassifyTraced(searcher, nil, w.Metrics)
			}
		case FPS:
			// FPS derives the classification during sampling.
			sample, class, err = sampling.FPS(context.Background(), searcher, sampling.FPSConfig{
				Classifier: w.Classifier,
				Metrics:    w.Metrics,
			})
			if err != nil {
				return fmt.Errorf("FPS over %s: %w", db.Name, err)
			}
		default:
			return fmt.Errorf("experiments: unknown sampler %v", cfg.Sampler)
		}

		if cfg.KeepSampleDocs {
			out.SampleDocs[i] = sample.Docs
		}
		out.Unshrunk[i], out.SizeEst[i], out.Gamma[i] = freqest.Summarize(sample, cfg.FreqEst)
		out.Class[i] = class
		return nil
	}
	workers := w.Scale.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if err := pool.ForEach(n, workers, nil, one); err != nil {
		return nil, err
	}

	out.Derived = selection.Derive(w.Bed.Tree, out.sources(w), core.SizeWeighted, nil, w.Metrics)
	return out, nil
}

// Classified returns the classified-summary slice (the hierarchical
// baseline's input, and with |D̂| and γ the derivation's).
func (s *DBSummaries) Classified(w *World) []core.Classified {
	out := make([]core.Classified, len(s.Unshrunk))
	for i, db := range w.Bed.Databases {
		out[i] = core.Classified{Name: db.Name, Category: s.Class[i], Sum: s.Unshrunk[i]}
	}
	return out
}

// sources is selection.Derive's input: every database's classified
// summary with its |D̂| and γ.
func (s *DBSummaries) sources(w *World) []selection.Source {
	out := make([]selection.Source, len(s.Unshrunk))
	for i, c := range s.Classified(w) {
		out[i] = selection.Source{Classified: c, Size: s.SizeEst[i], Gamma: s.Gamma[i]}
	}
	return out
}
