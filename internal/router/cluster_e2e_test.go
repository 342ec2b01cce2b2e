package router

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/shardmap"
	"repro/internal/wire"
)

// The cluster end-to-end test: a 2-shard topology with 2 dbnode
// replicas per database must serve rankings bit-identical to a
// single-process metasearcher over the same save file, and keep serving
// them — without a single failed query — while one replica is down.

type clusterDB struct {
	name     string
	category string
	docs     [][]string
}

var (
	clusterOnce    sync.Once
	clusterDBs     []clusterDB
	clusterLexicon []string
	clusterErr     error
)

// clusterTestbed builds the TestScale Web testbed once and returns its
// first n databases in sanitized term space (the same mapping
// cmd/metasearch and cmd/dbnode apply).
func clusterTestbed(t testing.TB, n int) ([]clusterDB, []string) {
	t.Helper()
	clusterOnce.Do(func() {
		w, err := experiments.BuildWorld(experiments.Web, experiments.TestScale())
		if err != nil {
			clusterErr = err
			return
		}
		clusterLexicon = experiments.SanitizeAll(w.Lexicon)
		for _, db := range w.Bed.Databases {
			docs := make([][]string, db.Index.NumDocs())
			for id := range docs {
				docs[id] = experiments.SanitizeAll(db.Index.Doc(index.DocID(id)))
			}
			clusterDBs = append(clusterDBs, clusterDB{
				name:     db.Name,
				category: w.Bed.Tree.Node(db.Category).Name,
				docs:     docs,
			})
		}
	})
	if clusterErr != nil {
		t.Fatal(clusterErr)
	}
	if n > len(clusterDBs) {
		t.Fatalf("testbed has %d databases, need %d", len(clusterDBs), n)
	}
	return clusterDBs[:n], clusterLexicon
}

// clusterOptions disables the query caches so every search re-fans out:
// the replica-kill phase must exercise live failover, not cache hits.
func clusterOptions(lexicon []string) repro.Options {
	return repro.Options{
		SampleSize:    60,
		SeedLexicon:   lexicon,
		Seed:          1,
		KeepStopwords: true,
		NoStemming:    true,
		Cache:         repro.CacheConfig{Disable: true},
	}
}

func TestClusterMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full testbed and cluster")
	}
	dbs, lexicon := clusterTestbed(t, 4)

	// Offline build: summaries from in-process databases, saved once;
	// the baseline and every shard load this same file.
	builder := repro.New(clusterOptions(lexicon))
	for _, d := range dbs {
		if err := builder.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}

	// Every database runs as 2 identical dbnode replicas.
	const numReplicas = 2
	replicaSrvs := make(map[string][]*httptest.Server, len(dbs))
	replicaAddrs := make(map[string][]string, len(dbs))
	for _, d := range dbs {
		for i := 0; i < numReplicas; i++ {
			srv := httptest.NewServer(wire.NewServer(
				repro.NewLocalDatabaseFromTerms(d.name, d.docs),
				wire.ServerOptions{Category: d.category}))
			t.Cleanup(srv.Close)
			replicaSrvs[d.name] = append(replicaSrvs[d.name], srv)
			replicaAddrs[d.name] = append(replicaAddrs[d.name], strings.TrimPrefix(srv.URL, "http://"))
		}
	}

	// The single-process baseline: all databases live, the complete
	// save file, no sharding. It dials replica 1 of each database, so
	// killing replica 0 later hits only the cluster's preferred
	// replicas, never the baseline.
	baseline := repro.New(clusterOptions(lexicon))
	for _, d := range dbs {
		rdb, err := repro.DialReplicatedDatabase(context.Background(), replicaAddrs[d.name][1:2], repro.ReplicatedDatabaseOptions{
			Metrics: baseline.Metrics(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := baseline.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := baseline.LoadFile(stateFile); err != nil {
		t.Fatal(err)
	}

	// The topology: 2 shards, each database on 1 owning shard, served
	// by its 2 replica processes.
	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
		// Addrs are placeholders until each shard's gateway is up; the
		// ring only hashes shard IDs, so assignments are already final.
		Shards: []shardmap.Shard{
			{ID: "shard-00", Addr: "pending:0"},
			{ID: "shard-01", Addr: "pending:0"},
		},
	}
	for _, d := range dbs {
		topo.Databases = append(topo.Databases, shardmap.Database{
			Name:     d.name,
			Category: d.category,
			Replicas: replicaAddrs[d.name],
		})
	}

	// Boot each shard: a full metasearcher whose live handles are
	// ReplicatedDatabases over its consistent-hash slice, loading the
	// complete save file scoped to that slice.
	shardMs := make([]*repro.Metasearcher, len(topo.Shards))
	for i := range topo.Shards {
		assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(assigns) == 0 {
			t.Fatalf("shard %s owns no databases; the bounded-load ring should spread 4 dbs over 2 shards", topo.Shards[i].ID)
		}
		sm := repro.New(clusterOptions(lexicon))
		keep := make(map[string]bool, len(assigns))
		for _, a := range assigns {
			rdb, err := repro.DialReplicatedDatabase(context.Background(), a.Replicas, repro.ReplicatedDatabaseOptions{
				Preferred: a.Preferred,
				Breakers:  sm.Breakers(),
				Metrics:   sm.Metrics(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.AddDatabase(rdb, rdb.Category()); err != nil {
				t.Fatal(err)
			}
			keep[a.Database] = true
		}
		if err := sm.LoadFileFiltered(stateFile, func(name string) bool { return keep[name] }); err != nil {
			t.Fatal(err)
		}
		shardMs[i] = sm

		gw := httptest.NewServer(gateway.New(sm, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: sm.Metrics()}))
		t.Cleanup(gw.Close)
		topo.Shards[i].Addr = strings.TrimPrefix(gw.URL, "http://")
	}

	rt, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{
		dbs[0].docs[0][0] + " " + dbs[0].docs[0][1],
		dbs[1].docs[0][0] + " " + dbs[1].docs[0][1],
		dbs[2].docs[0][0] + " " + dbs[2].docs[0][1],
		dbs[3].docs[0][0] + " " + dbs[3].docs[0][1],
	}

	assertIdentical := func(phase string) {
		t.Helper()
		for _, q := range queries {
			want, err := baseline.SearchExplained(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatalf("%s: baseline %q: %v", phase, q, err)
			}
			got, err := rt.SearchExplained(context.Background(), q, 3, 5)
			if err != nil {
				t.Fatalf("%s: cluster %q: %v", phase, q, err)
			}
			if !reflect.DeepEqual(want.Selections, got.Selections) {
				t.Errorf("%s: selections diverge for %q:\n single: %+v\ncluster: %+v",
					phase, q, want.Selections, got.Selections)
			}
			if len(want.Results) == 0 {
				t.Fatalf("%s: baseline returned no results for %q; the query is not exercising the pipeline", phase, q)
			}
			if !reflect.DeepEqual(want.Results, got.Results) {
				t.Errorf("%s: rankings diverge for %q:\n single: %+v\ncluster: %+v",
					phase, q, want.Results, got.Results)
			}
			if !reflect.DeepEqual(want.Terms, got.Terms) || want.Scorer != got.Scorer {
				t.Errorf("%s: provenance diverges for %q: terms %v/%v scorer %q/%q",
					phase, q, want.Terms, got.Terms, want.Scorer, got.Scorer)
			}
		}
	}

	assertIdentical("all replicas up")

	// A shard that selected an out-of-scope database must have skipped
	// it (another shard served it) — that is what sharding divides.
	var outOfScope int64
	for _, sm := range shardMs {
		outOfScope += sm.Metrics().Counter("search_out_of_scope_total").Value()
	}
	if outOfScope == 0 {
		t.Error("no shard skipped an out-of-scope database; the scope filter is not engaged")
	}

	// Kill replica 0 of every database — with replication 1 every
	// shard's Preferred is 0, so every replicated call now meets a dead
	// preferred replica first. Queries must keep succeeding with
	// bit-identical rankings: failover to replica 1, zero failed
	// queries. (The baseline is unaffected; it dialed replica 1.)
	for _, d := range dbs {
		replicaSrvs[d.name][0].CloseClientConnections()
		replicaSrvs[d.name][0].Close()
	}
	assertIdentical("preferred replica down")

	// Enough extra rounds that every selected database's dead replica
	// accumulates MinSamples failures even when the retry budget
	// suppresses hedged duplicates.
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if _, err := rt.SearchExplained(context.Background(), q, 3, 5); err != nil {
				t.Fatalf("preferred replica down, requery %q: %v", q, err)
			}
		}
	}

	var failovers, exhausted int64
	openReplica := false
	for _, sm := range shardMs {
		failovers += sm.Metrics().Counter("replica_failover_total").Value()
		exhausted += sm.Metrics().Counter("replica_exhausted_total").Value()
		for _, b := range sm.Breakers().Snapshot() {
			if strings.Contains(b.Database, "@") && b.State != "closed" {
				openReplica = true
			}
		}
	}
	if failovers == 0 {
		t.Error("no replica failover recorded although a replica of every database is down")
	}
	if exhausted != 0 {
		t.Errorf("replica_exhausted_total = %d; with one live replica per database no call should exhaust", exhausted)
	}
	if !openReplica {
		t.Error("no per-replica breaker left the closed state after repeated failures")
	}
}
