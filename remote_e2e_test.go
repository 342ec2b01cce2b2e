package repro

import (
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/replica"
	"repro/internal/wire"
)

// testShard is one synthetic testbed database in sanitized term space.
type testShard struct {
	name     string
	category string
	docs     [][]string
}

var (
	shardOnce    sync.Once
	shardCache   []testShard
	lexiconCache []string
	shardErr     error
)

// testbedShards builds the TestScale Web testbed once and returns its
// first n databases (sanitized the way cmd/metasearch and cmd/dbnode
// do) plus the matching seed lexicon.
func testbedShards(t testing.TB, n int) ([]testShard, []string) {
	t.Helper()
	shardOnce.Do(func() {
		sc := experiments.TestScale()
		w, err := experiments.BuildWorld(experiments.Web, sc)
		if err != nil {
			shardErr = err
			return
		}
		lexiconCache = experiments.SanitizeAll(w.Lexicon)
		for _, db := range w.Bed.Databases {
			docs := make([][]string, db.Index.NumDocs())
			for id := range docs {
				docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
			}
			shardCache = append(shardCache, testShard{
				name:     db.Name,
				category: w.Bed.Tree.Node(db.Category).Name,
				docs:     docs,
			})
		}
	})
	if shardErr != nil {
		t.Fatal(shardErr)
	}
	if n > len(shardCache) {
		t.Fatalf("testbed has %d databases, need %d", len(shardCache), n)
	}
	return shardCache[:n], lexiconCache
}

// testbedOptions is the metasearcher configuration cmd/metasearch uses
// for the synthetic term space.
func testbedOptions(lexicon []string) Options {
	return Options{
		SampleSize:    60,
		SeedLexicon:   lexicon,
		Seed:          1,
		KeepStopwords: true,
		NoStemming:    true,
	}
}

// TestRemotePipelineMatchesInProcess runs the full pipeline twice over
// the same three testbed databases — once in-process, once with every
// database behind a dbnode-style wire server — and requires identical
// summaries, selections, and merged search results. The wire protocol
// must be a transparent transport: same terms in, same ranking out.
func TestRemotePipelineMatchesInProcess(t *testing.T) {
	shards, lexicon := testbedShards(t, 3)
	query := strings.Join([]string{shards[0].docs[0][0], shards[0].docs[0][1]}, " ")

	local := New(testbedOptions(lexicon))
	for _, s := range shards {
		if err := local.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.BuildSummaries(); err != nil {
		t.Fatal(err)
	}

	remote := New(testbedOptions(lexicon))
	for _, s := range shards {
		srv := httptest.NewServer(wire.NewServer(
			NewLocalDatabaseFromTerms(s.name, s.docs),
			wire.ServerOptions{Category: s.category}))
		t.Cleanup(srv.Close)
		rdb, err := replica.Dial(context.Background(), []string{srv.URL}, replica.Options{
			Metrics: remote.Metrics(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rdb.Name() != s.name {
			t.Fatalf("node advertises name %q, want %q", rdb.Name(), s.name)
		}
		if rdb.Category() != s.category {
			t.Fatalf("node advertises category %q, want %q", rdb.Category(), s.category)
		}
		if rdb.NumDocs() != len(s.docs) {
			t.Fatalf("node advertises %d docs, want %d", rdb.NumDocs(), len(s.docs))
		}
		if err := remote.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := remote.BuildSummariesContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The built state must match database by database: remote sampling
	// saw the same terms through the same seeded random streams.
	for _, s := range shards {
		li, err := local.Info(s.name)
		if err != nil {
			t.Fatal(err)
		}
		ri, err := remote.Info(s.name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(li, ri) {
			t.Errorf("built state diverges for %s:\n local: %+v\nremote: %+v", s.name, li, ri)
		}
	}

	lsel, err := local.Select(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	rsel, err := remote.Select(query, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsel, rsel) {
		t.Errorf("selection diverges:\n local: %+v\nremote: %+v", lsel, rsel)
	}

	lres, err := local.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := remote.Search(context.Background(), SearchRequest{Query: query, MaxDBs: 3, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(lres.Results) == 0 {
		t.Fatal("in-process search returned no results; query is not exercising the pipeline")
	}
	if !reflect.DeepEqual(lres.Results, rres.Results) {
		t.Errorf("search results diverge:\n local: %+v\nremote: %+v", lres.Results, rres.Results)
	}
}

// TestBuildSummariesContextCancelled verifies a cancelled build stops
// against remote nodes and reports the context's error.
func TestBuildSummariesContextCancelled(t *testing.T) {
	shards, lexicon := testbedShards(t, 1)
	srv := httptest.NewServer(wire.NewServer(
		NewLocalDatabaseFromTerms(shards[0].name, shards[0].docs),
		wire.ServerOptions{Category: shards[0].category}))
	defer srv.Close()

	m := New(testbedOptions(lexicon))
	rdb, err := replica.Dial(context.Background(), []string{srv.URL}, replica.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = m.BuildSummariesContext(ctx)
	if err == nil {
		t.Fatal("cancelled build reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build error = %v, want context.Canceled", err)
	}
}
