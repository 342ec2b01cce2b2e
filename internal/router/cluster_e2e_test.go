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
	"repro/internal/replica"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
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
		rdb, err := replica.Dial(context.Background(), replicaAddrs[d.name][1:2], replica.Options{
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
	// replica.Databases over its consistent-hash slice, loading the
	// complete save file.
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
		for _, a := range assigns {
			rdb, err := replica.Dial(context.Background(), a.Replicas, replica.Options{
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
		}
		if err := sm.LoadFile(stateFile); err != nil {
			t.Fatal(err)
		}
		shardMs[i] = sm

		gw := httptest.NewServer(gateway.For(sm.Search, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: sm.Metrics()}))
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
			want, err := baseline.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
			if err != nil {
				t.Fatalf("%s: baseline %q: %v", phase, q, err)
			}
			got, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
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
			if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5}); err != nil {
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

// TestClusterDefaultPerDBMatchesSingleProcess pins the request rule on
// the cluster plane: a request that names no PerDB means
// repro.DefaultPerDB on both planes, so the router must name it to every
// shard rather than leave it to the shard gateways' own default (3
// here, as `metasearch shard -perdb 3` would set it).
func TestClusterDefaultPerDBMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a testbed and a two-shard cluster")
	}
	dbs, lexicon := clusterTestbed(t, 4)
	// open registers live handles for the databases keep admits (all of
	// them when keep is nil): a shard's slice is its handles.
	open := func(keep map[string]bool) *repro.Metasearcher {
		m := repro.New(clusterOptions(lexicon))
		for _, d := range dbs {
			if keep != nil && !keep[d.name] {
				continue
			}
			if err := m.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	builder := open(nil)
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}
	baseline := open(nil)
	if err := baseline.LoadFile(stateFile); err != nil {
		t.Fatal(err)
	}

	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
		Shards:  []shardmap.Shard{{ID: "shard-00", Addr: "pending:0"}, {ID: "shard-01", Addr: "pending:0"}},
	}
	for _, d := range dbs {
		topo.Databases = append(topo.Databases, shardmap.Database{Name: d.name, Category: d.category, Replicas: []string{"127.0.0.1:1"}})
	}
	for i := range topo.Shards {
		assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		keep := make(map[string]bool, len(assigns))
		for _, a := range assigns {
			keep[a.Database] = true
		}
		sm := open(keep)
		if err := sm.LoadFile(stateFile); err != nil {
			t.Fatal(err)
		}
		gw := httptest.NewServer(gateway.For(sm.Search, gateway.Options{ShardID: topo.Shards[i].ID, DefaultPerDB: 3}))
		t.Cleanup(gw.Close)
		topo.Shards[i].Addr = strings.TrimPrefix(gw.URL, "http://")
	}
	rt, err := New(topo, Options{})
	if err != nil {
		t.Fatal(err)
	}

	deep := false // some database contributed more than the shards' default of 3
	for _, d := range dbs {
		q := d.docs[0][0]
		want, err := baseline.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3})
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		got, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3})
		if err != nil {
			t.Fatalf("cluster %q: %v", q, err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Errorf("rankings diverge for %q with no PerDB:\n single: %+v\ncluster: %+v", q, want.Results, got.Results)
		}
		perDB := make(map[string]int)
		for _, r := range want.Results {
			perDB[r.Database]++
			deep = deep || perDB[r.Database] > 3
		}
	}
	if !deep {
		t.Fatal("no database returned more than 3 documents; the queries cannot tell the default depths apart")
	}
}

// TestClusterEmptyShardMatchesSingleProcess: a two-shard topology over
// two databases whose ring gives one shard nothing. Each shard starts
// the way `metasearch shard` does — the complete save file, then its
// assignments applied as the first topology swap, then one probe sweep —
// so the empty shard serves an empty ranking instead of failing, and
// the cluster answer is the single-process one.
func TestClusterEmptyShardMatchesSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a testbed and a two-shard cluster")
	}
	all, lexicon := clusterTestbed(t, 8)

	// The first pair of databases the ring puts on one shard.
	var dbs []clusterDB
	var topo *shardmap.Topology
	for i := 0; i < len(all) && dbs == nil; i++ {
		for j := i + 1; j < len(all) && dbs == nil; j++ {
			cand := &shardmap.Topology{
				Version: shardmap.TopologyVersion,
				Shards:  []shardmap.Shard{{ID: "shard-00", Addr: "pending:0"}, {ID: "shard-01", Addr: "pending:0"}},
			}
			for _, d := range []clusterDB{all[i], all[j]} {
				cand.Databases = append(cand.Databases, shardmap.Database{Name: d.name, Category: d.category, Replicas: []string{"pending:0"}})
			}
			for _, s := range cand.Shards {
				if as, err := cand.ShardAssignments(s.ID); err == nil && len(as) == 0 {
					dbs, topo = []clusterDB{all[i], all[j]}, cand
				}
			}
		}
	}
	if dbs == nil {
		t.Fatal("no pair of testbed databases leaves a shard empty")
	}

	builder := repro.New(clusterOptions(lexicon))
	baseline := repro.New(clusterOptions(lexicon))
	for i, d := range dbs {
		for _, m := range []*repro.Metasearcher{builder, baseline} {
			if err := m.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(wire.NewServer(repro.NewLocalDatabaseFromTerms(d.name, d.docs), wire.ServerOptions{Category: d.category}))
		t.Cleanup(srv.Close)
		topo.Databases[i].Replicas = []string{strings.TrimPrefix(srv.URL, "http://")}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	stateFile := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}
	if err := baseline.LoadFile(stateFile); err != nil {
		t.Fatal(err)
	}

	shardMs := make([]*repro.Metasearcher, len(topo.Shards))
	for i := range topo.Shards {
		assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		sm := repro.New(clusterOptions(lexicon))
		if err := sm.LoadFile(stateFile); err != nil {
			t.Fatal(err)
		}
		if _, err := sm.ApplyReplicaAssignments(assigns); err != nil {
			t.Fatal(err)
		}
		sm.Probe(context.Background())
		shardMs[i] = sm
		gw := httptest.NewServer(gateway.For(sm.Search, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: sm.Metrics()}))
		t.Cleanup(gw.Close)
		topo.Shards[i].Addr = strings.TrimPrefix(gw.URL, "http://")
	}
	reg := telemetry.NewRegistry()
	rt, err := New(topo, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range dbs {
		q := d.docs[0][0] + " " + d.docs[0][1]
		want, err := baseline.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 2, PerDB: 5})
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		if len(want.Results) == 0 {
			t.Fatalf("baseline returned no results for %q; the query is not exercising the pipeline", q)
		}
		got, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 2, PerDB: 5})
		if err != nil {
			t.Fatalf("cluster %q: %v", q, err)
		}
		if !reflect.DeepEqual(want.Selections, got.Selections) || !reflect.DeepEqual(want.Results, got.Results) {
			t.Errorf("cluster diverges for %q:\n single: %+v %+v\ncluster: %+v %+v",
				q, want.Selections, want.Results, got.Selections, got.Results)
		}
	}
	if got := reg.Counter("router_shard_errors_total").Value(); got != 0 {
		t.Errorf("router_shard_errors_total = %d; the empty shard must answer, not fail", got)
	}
	var outOfScope int64
	for _, sm := range shardMs {
		outOfScope += sm.Metrics().Counter("search_out_of_scope_total").Value()
	}
	if outOfScope == 0 {
		t.Error("no shard skipped a database; the empty shard was never asked")
	}
}
