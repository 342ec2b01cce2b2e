// Micro-benchmarks of the core machinery: EM convergence, the adaptive
// decision, selection and search through the public API, summary
// construction and shrunk-summary materialization, and the whole-store
// passes after sampling (deriveStore, Save, Load), on a compact
// testbed. `make bench` runs each once as a bit-rot check. Performance
// numbers come from the repo benchmark (go run ./benchmark); the
// paper's tables and figures from `go run ./cmd/experiments -all`,
// with their shape asserted by the tests in internal/experiments.
package repro

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/selection"
	"repro/internal/summary"
)

// benchScale is the compact testbed the benches share: bigger than
// TestScale (so the phenomena are visible) but far below the full
// evaluation scale.
func benchScale() experiments.Scale {
	sc := experiments.TestScale()
	sc.WebPerLeaf = 2
	sc.WebExtra = 10
	sc.WebMinSize = 100
	sc.WebMaxSize = 600
	sc.TRECPool = 8000
	sc.TRECDatabases = 30
	sc.Queries = 15
	sc.SampleTarget = 100
	sc.GlobalVocab = 3000
	sc.CategoryVocab = 1500
	return sc
}

var benchWorlds struct {
	mu    sync.Mutex
	web   *experiments.World
	trec  *experiments.World
	sums  map[string]*experiments.DBSummaries
	built *Metasearcher // over web, see benchStore
	state []byte        // its Save output
}

func benchWorld(b *testing.B, kind experiments.BedKind) *experiments.World {
	b.Helper()
	benchWorlds.mu.Lock()
	defer benchWorlds.mu.Unlock()
	switch kind {
	case experiments.Web:
		if benchWorlds.web == nil {
			w, err := experiments.BuildWorld(kind, benchScale())
			if err != nil {
				b.Fatal(err)
			}
			benchWorlds.web = w
		}
		return benchWorlds.web
	default:
		if benchWorlds.trec == nil {
			w, err := experiments.BuildWorld(experiments.TREC4, benchScale())
			if err != nil {
				b.Fatal(err)
			}
			benchWorlds.trec = w
		}
		return benchWorlds.trec
	}
}

func benchSummaries(b *testing.B, kind experiments.BedKind, cfg experiments.Config) *experiments.DBSummaries {
	b.Helper()
	w := benchWorld(b, kind)
	benchWorlds.mu.Lock()
	defer benchWorlds.mu.Unlock()
	if benchWorlds.sums == nil {
		benchWorlds.sums = make(map[string]*experiments.DBSummaries)
	}
	key := kind.String() + "/" + cfg.String()
	if s, ok := benchWorlds.sums[key]; ok {
		return s
	}
	s, err := w.BuildSummaries(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchWorlds.sums[key] = s
	return s
}

// BenchmarkEMConvergence is the DESIGN.md ablation: EM cost as a
// function of the convergence tolerance.
func BenchmarkEMConvergence(b *testing.B) {
	w := benchWorld(b, experiments.Web)
	sums := benchSummaries(b, experiments.Web, experiments.Config{Sampler: experiments.QBS, FreqEst: true})
	classified := sums.Classified(w)
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		b.Run(epsName(eps), func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				sh := core.Shrink(sums.Cats, classified[i%len(classified)], core.ShrinkOptions{Epsilon: eps})
				iters = sh.EMIterations()
			}
			b.ReportMetric(float64(iters), "em-iters")
		})
	}
}

func epsName(eps float64) string {
	switch eps {
	case 1e-2:
		return "eps=1e-2"
	case 1e-3:
		return "eps=1e-3"
	default:
		return "eps=1e-4"
	}
}

// BenchmarkAdaptiveDecision measures the per-(query, database) cost of
// the Figure 3 content-summary selection step (the paper argues it is
// cheap enough for query time).
func BenchmarkAdaptiveDecision(b *testing.B) {
	w := benchWorld(b, experiments.TREC4)
	sums := benchSummaries(b, experiments.TREC4, experiments.Config{Sampler: experiments.QBS, FreqEst: true})
	a := &selection.Adaptive{Base: selection.CORI{}}
	q := w.Bed.Queries[0].Terms
	entries := make([]selection.Entry, len(sums.DBs))
	for i, db := range sums.DBs {
		entries[i] = selection.Entry{Name: db.Name, View: db.Unshrunk}
	}
	ctx := selection.NewContext(q, entries, sums.Root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Choose(q, sums.DBs, ctx)
	}
	b.ReportMetric(float64(len(sums.DBs)), "databases/op")
}

// BenchmarkEndToEndSelect measures a complete metasearcher query
// through the public API.
func BenchmarkEndToEndSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(Options{SampleSize: 30, Seed: 3})
	for _, topic := range topicOrder {
		docs := topicDocs(rng, topic, 20)
		if err := m.Train(topic, docs); err != nil {
			b.Fatal(err)
		}
	}
	for i, topic := range []string{"Heart", "Cancer", "Soccer"} {
		db := NewLocalDatabaseFromTerms(topic+"-db", analyzed(m, topicDocs(rng, topic, 60)))
		if err := m.AddDatabase(db, ""); err != nil {
			b.Fatal(err)
		}
		_ = i
	}
	if err := m.BuildSummaries(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Select("blood pressure hypertension", 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCached contrasts the query-cache hit path with the
// cold path through the public search API: "hit" answers every
// iteration from the result cache, "miss" invalidates before each
// iteration so selection and the fan-out run every time.
func BenchmarkSearchCached(b *testing.B) {
	build := func(b *testing.B) *Metasearcher {
		rng := rand.New(rand.NewSource(1))
		m := New(Options{SampleSize: 30, Seed: 3})
		for _, topic := range topicOrder {
			if err := m.Train(topic, topicDocs(rng, topic, 20)); err != nil {
				b.Fatal(err)
			}
		}
		for _, topic := range topicOrder {
			db := NewLocalDatabaseFromTerms(topic+"-db", analyzed(m, topicDocs(rng, topic, 60)))
			if err := m.AddDatabase(db, topic); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.BuildSummaries(); err != nil {
			b.Fatal(err)
		}
		return m
	}
	const query = "blood pressure hypertension"
	ctx := context.Background()

	b.Run("hit", func(b *testing.B) {
		m := build(b)
		if _, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: 5}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
			if err != nil {
				b.Fatal(err)
			}
			if !r.CacheHit {
				b.Fatal("iteration was not a cache hit")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		m := build(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.invalidateCaches()
			r, err := m.Search(ctx, SearchRequest{Query: query, MaxDBs: 2, PerDB: 5})
			if err != nil {
				b.Fatal(err)
			}
			if r.CacheHit {
				b.Fatal("iteration was served from cache despite invalidation")
			}
		}
	})
}

// BenchmarkBuildSummaries measures full summary construction (sampling
// + classification + frequency estimation + shrinkage) per database.
func BenchmarkBuildSummaries(b *testing.B) {
	w := benchWorld(b, experiments.Web)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.BuildSummaries(experiments.Config{Sampler: experiments.QBS, FreqEst: true, Run: i + 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(w.Bed.Databases)), "databases/op")
}

// BenchmarkMaterializeShrunk measures materializing a shrunk summary
// with the round rule (the evaluation path of Tables 4-7).
func BenchmarkMaterializeShrunk(b *testing.B) {
	sums := benchSummaries(b, experiments.Web, experiments.Config{Sampler: experiments.QBS, FreqEst: true})
	b.ResetTimer()
	var s *summary.Summary
	for i := 0; i < b.N; i++ {
		s = sums.Shrunk[i%len(sums.Shrunk)].Materialize(1)
	}
	b.ReportMetric(float64(s.Len()), "words")
}

// benchStore is a metasearcher built over benchWorld(Web) the way the
// repo benchmark's build workload builds one (sanitized vocabulary kept
// verbatim, directory categories, GOMAXPROCS sampling workers), its
// options, and its saved state.
func benchStore(b *testing.B) (*Metasearcher, Options, []byte) {
	b.Helper()
	w := benchWorld(b, experiments.Web)
	opts := Options{
		SampleSize:    w.Scale.SampleTarget,
		SeedLexicon:   experiments.SanitizeAll(w.Lexicon),
		Seed:          1,
		Parallelism:   runtime.GOMAXPROCS(0),
		KeepStopwords: true,
		NoStemming:    true,
		Cache:         CacheConfig{Disable: true},
	}
	benchWorlds.mu.Lock()
	defer benchWorlds.mu.Unlock()
	if benchWorlds.built == nil {
		m := New(opts)
		for _, db := range w.Bed.Databases {
			docs := make([][]string, db.Index.NumDocs())
			for id := range docs {
				docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
			}
			if err := m.AddDatabase(NewLocalDatabaseFromTerms(db.Name, docs), w.Bed.Tree.Node(db.Category).Name); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.BuildSummaries(); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.save(&buf); err != nil {
			b.Fatal(err)
		}
		benchWorlds.built, benchWorlds.state = m, buf.Bytes()
	}
	return benchWorlds.built, opts, benchWorlds.state
}

// The three whole-store passes after sampling, each over the benchmark
// world's 118 databases; MB/s is in bytes of saved state. The numbers
// of record are the repo benchmark's persist.save_s, persist.load_s,
// build.db_per_s and core.shrink_ms_per_db.

// BenchmarkDeriveStore measures category aggregation plus one EM fit
// per database: what every build, load and refresh swap ends with.
func BenchmarkDeriveStore(b *testing.B) {
	m, _, state := benchStore(b)
	st := m.state.Load()
	b.SetBytes(int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next := m.deriveStore(st.dbs, st.lexicon, st.trainingDocs, nil); len(next.derived.DBs) != len(st.dbs) {
			b.Fatal("deriveStore dropped a database")
		}
	}
	b.ReportMetric(float64(len(st.dbs)), "databases/op")
}

func BenchmarkSave(b *testing.B) {
	m, _, state := benchStore(b)
	var buf bytes.Buffer
	b.SetBytes(int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.save(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(m.state.Load().dbs)), "databases/op")
}

func BenchmarkLoad(b *testing.B) {
	m, opts, state := benchStore(b)
	b.SetBytes(int64(len(state)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := New(opts).load(bytes.NewReader(state)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(m.state.Load().dbs)), "databases/op")
}
