// Package experiments assembles the paper's evaluation end to end: it
// builds the three testbeds (Web, TREC4, TREC6; Section 5.1), runs the
// content-summary construction strategies (QBS/FPS × frequency
// estimation × shrinkage; Section 5.2), and regenerates every table and
// figure of the evaluation (Section 6).
package experiments

import (
	"fmt"

	"repro/internal/classify"
	"repro/internal/hierarchy"
	"repro/internal/summary"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// BedKind selects one of the paper's three data sets.
type BedKind int

const (
	// Web is the 315-database web testbed (databases classified by the
	// directory; wide size spread).
	Web BedKind = iota
	// TREC4 is the 100-database clustered testbed with long queries
	// (8-34 words).
	TREC4
	// TREC6 is the 100-database clustered testbed with short queries
	// (2-5 words).
	TREC6
)

// String implements fmt.Stringer.
func (k BedKind) String() string {
	switch k {
	case Web:
		return "Web"
	case TREC4:
		return "TREC4"
	case TREC6:
		return "TREC6"
	}
	return fmt.Sprintf("BedKind(%d)", int(k))
}

// Scale sets the testbed sizes. The paper's absolute scale (hundreds of
// thousands of documents per testbed) is reduced ~10× so the full
// evaluation runs on one core in minutes; all database *counts* match
// the paper.
type Scale struct {
	// Web testbed: PerLeaf databases per leaf plus Extra, sizes
	// log-uniform in [WebMinSize, WebMaxSize].
	WebPerLeaf, WebExtra   int
	WebMinSize, WebMaxSize int
	// TREC-style testbeds: pool size and database (cluster) count.
	TRECPool, TRECDatabases int
	ClusterFeatures         int
	ClusterIters            int
	// Queries per workload and sampling parameters.
	Queries          int
	SampleTarget     int // QBS sample size (paper: 300)
	QBSRuns          int // samples averaged per database (paper: 5)
	TrainDocsPerLeaf int // classifier training set size
	// Generator vocabulary scale.
	GlobalVocab, CategoryVocab int
	// Workers bounds the per-database concurrency of summary
	// construction: 0 = GOMAXPROCS, 1 = sequential. Results are
	// identical either way (every database has its own sub-seed).
	Workers int
	Seed    int64
}

// DefaultScale is the laptop-scale default used by cmd/experiments and
// the benchmark harness.
func DefaultScale() Scale {
	return Scale{
		WebPerLeaf: 5, WebExtra: 45,
		WebMinSize: 100, WebMaxSize: 2500,
		// 100k pool documents over 100 databases gives ~1000 docs per
		// database, so the 300-document samples are genuinely
		// incomplete (the paper's TREC4 databases average ~5700 docs).
		TRECPool: 100000, TRECDatabases: 100,
		ClusterFeatures: 1200, ClusterIters: 6,
		Queries:          50,
		SampleTarget:     300,
		QBSRuns:          3,
		TrainDocsPerLeaf: 60,
		GlobalVocab:      6000,
		CategoryVocab:    2600,
		Seed:             1,
	}
}

// TestScale is a miniature configuration for unit tests.
func TestScale() Scale {
	return Scale{
		WebPerLeaf: 1, WebExtra: 2,
		WebMinSize: 60, WebMaxSize: 250,
		TRECPool: 1500, TRECDatabases: 8,
		ClusterFeatures: 400, ClusterIters: 5,
		Queries:          8,
		SampleTarget:     60,
		QBSRuns:          1,
		TrainDocsPerLeaf: 25,
		GlobalVocab:      1200,
		CategoryVocab:    700,
		Seed:             1,
	}
}

// SmallScale is cmd/experiments' -scale small: TestScale's testbeds
// with ten queries. docs/results-small.txt is its output, and the
// sections' shape checks run at it.
func SmallScale() Scale {
	sc := TestScale()
	sc.Queries = 10
	return sc
}

// World is one fully built testbed with everything the experiments
// need: the databases, the query workload with relevance judgments, the
// trained probe classifier, the QBS seed lexicon, and the perfect
// content summaries (the evaluation ground truth).
type World struct {
	Kind       BedKind
	Scale      Scale
	Bed        *synth.Testbed
	Classifier *classify.Classifier
	Lexicon    []string
	Truth      []*summary.Summary // per database, S(D)
	Relevant   [][]int            // [query][db] = r(q, D)
	// Metrics, when non-nil, receives pipeline counters from summary
	// construction and selection (sampling_queries_total, em_*,
	// adaptive_*); cmd/experiments sets it to print a telemetry summary
	// after each run. Nil disables metric collection at zero cost.
	Metrics *telemetry.Registry
}

// BuildWorld generates a testbed of the given kind at the given scale.
// Everything is deterministic in Scale.Seed.
func BuildWorld(kind BedKind, sc Scale) (*World, error) {
	tree := hierarchy.Default()
	gen, err := synth.NewGenerator(synth.Config{
		Tree:              tree,
		Seed:              sc.Seed,
		GlobalVocabSize:   sc.GlobalVocab,
		CategoryVocabBase: sc.CategoryVocab,
	})
	if err != nil {
		return nil, err
	}

	var bed *synth.Testbed
	var qspec synth.QuerySpec
	switch kind {
	case Web:
		bed, err = synth.BuildWeb(gen, synth.WebConfig{
			PerLeaf: sc.WebPerLeaf, Extra: sc.WebExtra,
			MinSize: sc.WebMinSize, MaxSize: sc.WebMaxSize,
			Seed: sc.Seed + 10,
		})
		qspec = synth.TREC6QuerySpec(sc.Seed + 20) // web workload: short queries
	case TREC4:
		bed, err = synth.BuildTRECStyle(gen, synth.TRECConfig{
			Name: "TREC4", PoolDocs: sc.TRECPool, Databases: sc.TRECDatabases,
			ClusterFeatures: sc.ClusterFeatures, ClusterIters: sc.ClusterIters, Seed: sc.Seed + 11,
		})
		qspec = synth.TREC4QuerySpec(sc.Seed + 21)
	case TREC6:
		bed, err = synth.BuildTRECStyle(gen, synth.TRECConfig{
			Name: "TREC6", PoolDocs: sc.TRECPool, Databases: sc.TRECDatabases,
			ClusterFeatures: sc.ClusterFeatures, ClusterIters: sc.ClusterIters, Seed: sc.Seed + 12,
		})
		qspec = synth.TREC6QuerySpec(sc.Seed + 22)
	default:
		return nil, fmt.Errorf("experiments: unknown bed kind %v", kind)
	}
	if err != nil {
		return nil, err
	}

	qspec.Count = sc.Queries
	// Scale the minimum relevant-document requirement with the testbed:
	// tiny test corpora cannot support the paper-scale threshold.
	qspec.MinRelevant = bed.TotalDocs() / 2000
	if qspec.MinRelevant < 3 {
		qspec.MinRelevant = 3
	}
	if qspec.MinRelevant > 10 {
		qspec.MinRelevant = 10
	}
	if err := synth.GenQueries(bed, qspec); err != nil {
		return nil, err
	}

	// Train the probe classifier from per-leaf example documents — the
	// role QProber's ODP training data plays in the paper.
	ts := &classify.TrainingSet{}
	trainRNG := synth.SubRNG(sc.Seed, 31)
	for _, leaf := range tree.Leaves() {
		src := gen.NewDocSource(leaf, nil, trainRNG)
		var buf []string
		for i := 0; i < sc.TrainDocsPerLeaf; i++ {
			buf = src.GenDoc(trainRNG, buf)
			ts.Add(leaf, buf)
		}
	}
	// QProber's real classifiers carry hundreds of rules per category;
	// a richer probe set matters for FPS, whose sample size is the
	// number of probes times the docs retrieved per probe.
	cls, err := classify.Train(tree, ts, classify.Options{ProbesPerCategory: 25})
	if err != nil {
		return nil, err
	}

	w := &World{
		Kind:       kind,
		Scale:      sc,
		Bed:        bed,
		Classifier: cls,
		Lexicon:    lexicon(gen, 400),
	}

	// Ground truth: perfect summaries and relevance judgments.
	w.Truth = make([]*summary.Summary, len(bed.Databases))
	for i, db := range bed.Databases {
		w.Truth[i] = summary.FromIndex(db.Index)
	}
	w.Relevant = make([][]int, len(bed.Queries))
	for qi, q := range bed.Queries {
		row := make([]int, len(bed.Databases))
		for di, db := range bed.Databases {
			row[di] = q.RelevantIn(db)
		}
		w.Relevant[qi] = row
	}
	return w, nil
}

// lexicon returns the head of the global vocabulary, standing in for
// the English dictionary QBS draws bootstrap queries from.
func lexicon(gen *synth.Generator, n int) []string {
	v := gen.GlobalVocab()
	if n > v.Len() {
		n = v.Len()
	}
	out := make([]string, n)
	for i := range out {
		out[i] = v.Word(i)
	}
	return out
}
