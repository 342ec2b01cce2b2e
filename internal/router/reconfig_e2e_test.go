package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/gateway"
	"repro/internal/replica"
	"repro/internal/shardmap"
	"repro/internal/wire"
)

// The zero-downtime reconfiguration end-to-end test: steady query load
// runs through the router while one database's preferred replica is
// killed and the topology file is rewritten to drop it and add a
// replacement that sits behind a fault-injecting chaos proxy. The swap
// must lose zero queries, keep rankings bit-identical to the
// single-process baseline, put the replacement into live service, keep
// retry volume inside the cluster retry budget, and carry surviving
// replicas' breaker state across the swap.

func TestClusterReconfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a full testbed and cluster")
	}
	dbs, lexicon := clusterTestbed(t, 4)

	// Offline build, shared by the baseline and every shard.
	builder := repro.New(clusterOptions(lexicon))
	for _, d := range dbs {
		if err := builder.AddDatabase(repro.NewLocalDatabaseFromTerms(d.name, d.docs), d.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stateFile := filepath.Join(dir, "state.json")
	if err := builder.SaveFile(stateFile); err != nil {
		t.Fatal(err)
	}

	// Two dbnode replicas per database. Replica 0 of dbs[0] is the one
	// the test kills; replica 1 of every database stays up throughout
	// (the baseline dials those, so it never notices).
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

	// The replacement replica for dbs[0]: a fresh dbnode behind a chaos
	// proxy injecting latency and a 25% error rate — below any breaker
	// threshold, but enough that the swap path must tolerate a flaky
	// newcomer without failing a single query (failover covers).
	replacement := httptest.NewServer(wire.NewServer(
		repro.NewLocalDatabaseFromTerms(dbs[0].name, dbs[0].docs),
		wire.ServerOptions{Category: dbs[0].category}))
	t.Cleanup(replacement.Close)
	proxy, err := chaos.New(replacement.URL, chaos.Options{
		Initial: chaos.Faults{LatencyMs: 2, ErrorRate: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	proxySrv := httptest.NewServer(proxy)
	t.Cleanup(proxySrv.Close)
	chaosAddr := strings.TrimPrefix(proxySrv.URL, "http://")

	// Topology v1 on disk, under a watcher — the same reconfiguration
	// path cmd/metasearch drives.
	topoFile := filepath.Join(dir, "topology.json")
	topo := &shardmap.Topology{
		Version: shardmap.TopologyVersion,
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

	// Boot the shards off topology v1 (addresses resolve as each shard
	// gateway comes up; the ring hashes only shard IDs).
	shardMs := make([]*repro.Metasearcher, len(topo.Shards))
	for i := range topo.Shards {
		assigns, err := topo.ShardAssignments(topo.Shards[i].ID)
		if err != nil {
			t.Fatal(err)
		}
		sm := repro.New(clusterOptions(lexicon))
		for _, a := range assigns {
			rdb, err := replica.Dial(context.Background(), a.Replicas, replica.Options{
				Preferred: a.Preferred,
				Breakers:  sm.Breakers(),
				Metrics:   sm.Metrics(),
				Client:    replica.ClientOptions{Budget: sm.RetryBudget()},
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
		// Health probes are the mechanism that earns a swapped-in
		// replica its traffic: its breaker is seeded half-open, and the
		// probe's successful trial closes it. Each sweep reads the shard's
		// live store, so the swap needs no retargeting.
		t.Cleanup(clock.Every(nil, 25*time.Millisecond, sm.Probe))
		gw := httptest.NewServer(gateway.For(sm.Search, gateway.Options{ShardID: topo.Shards[i].ID, Metrics: sm.Metrics()}))
		t.Cleanup(gw.Close)
		topo.Shards[i].Addr = strings.TrimPrefix(gw.URL, "http://")
	}
	if err := topo.SaveFile(topoFile); err != nil {
		t.Fatal(err)
	}
	watcher, err := shardmap.NewWatcher(topoFile, shardmap.WatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}

	rt, err := New(watcher.Snapshot().Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// One watcher, with one apply hook that applies every simulated
	// plane in turn (in production each process runs its own watcher
	// over the shared file, with its own hook; the swap code paths are
	// identical). Shards reconcile replica sets; the router swaps its
	// ring. A plane that refuses the snapshot fails the hook, and the
	// watcher does not adopt it.
	watcher.OnSwap(func(snap *shardmap.Snapshot) error {
		for i, sm := range shardMs {
			id := topo.Shards[i].ID
			assigns, err := snap.Topology.ShardAssignments(id)
			if err != nil {
				return fmt.Errorf("shard %s assignments: %w", id, err)
			}
			if _, err := sm.ApplyReplicaAssignments(assigns); err != nil {
				return fmt.Errorf("shard %s swap: %w", id, err)
			}
		}
		return rt.ApplyTopology(snap)
	})

	queries := []string{
		dbs[0].docs[0][0] + " " + dbs[0].docs[0][1],
		dbs[1].docs[0][0] + " " + dbs[1].docs[0][1],
		dbs[2].docs[0][0] + " " + dbs[2].docs[0][1],
		dbs[3].docs[0][0] + " " + dbs[3].docs[0][1],
	}

	// Steady load through the router across the whole reconfiguration.
	// Every query must succeed: a replica death and the swap both have
	// failover cover, so zero failed queries is a hard assertion.
	var (
		loadWG    sync.WaitGroup
		stop      = make(chan struct{})
		succeeded atomic.Int64
		failures  atomic.Int64
		progress  = make(chan struct{}, 1) // a query succeeded since the last receive
	)
	for g := 0; g < 4; g++ {
		loadWG.Add(1)
		go func(g int) {
			defer loadWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5}); err != nil {
					failures.Add(1)
					t.Errorf("load query %q failed: %v", q, err)
				} else {
					succeeded.Add(1)
					select {
					case progress <- struct{}{}:
					default:
					}
				}
			}
		}(g)
	}
	// phase lets the load run until n more queries have succeeded: each
	// query set cycles over every database, so after the kill n of them
	// include calls that reached the dead replica and failed over.
	phase := func(name string, n int64) {
		t.Helper()
		target := succeeded.Load() + n
		deadline := time.After(30 * time.Second)
		for succeeded.Load() < target {
			select {
			case <-progress:
			case <-deadline:
				close(stop)
				loadWG.Wait()
				t.Fatalf("%s: %d of %d queries succeeded", name, succeeded.Load()-(target-n), n)
			}
		}
	}
	phase("before the kill", 40)

	// Kill dbs[0]'s preferred replica mid-load...
	deadAddr := replicaAddrs[dbs[0].name][0]
	replicaSrvs[dbs[0].name][0].CloseClientConnections()
	replicaSrvs[dbs[0].name][0].Close()
	phase("after the kill", 20)

	// ...then rewrite the topology: the dead replica is gone and the
	// chaos-proxied replacement is first in the list (so the owning
	// shard prefers it — the newcomer must take real traffic).
	next := *topo
	next.Databases = make([]shardmap.Database, len(topo.Databases))
	copy(next.Databases, topo.Databases)
	next.Databases[0].Replicas = []string{chaosAddr, replicaAddrs[dbs[0].name][1]}
	if err := next.SaveFile(topoFile); err != nil {
		t.Fatal(err)
	}
	// Beat filesystem mtime granularity so the stat-based watcher sees
	// the rewrite immediately.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(topoFile, future, future); err != nil {
		t.Fatal(err)
	}
	swapped, err := watcher.Poll()
	if err != nil || !swapped {
		t.Fatalf("watcher.Poll after rewrite: swapped=%v err=%v", swapped, err)
	}

	// Keep the load running on the new topology, then stop.
	phase("after the swap", 60)
	close(stop)
	loadWG.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d queries failed across the reconfiguration, want 0",
			failures.Load(), failures.Load()+succeeded.Load())
	}
	if succeeded.Load() == 0 {
		t.Fatal("load loop issued no queries; the test exercised nothing")
	}

	// The watcher is the one record of what every plane applied: its
	// generation, its swap trail, and the healthz status the router's
	// gateway reports.
	if got := watcher.Snapshot().Generation; got != 2 {
		t.Fatalf("watcher generation = %d, want 2", got)
	}
	if trail := watcher.Swaps(); len(trail) != 1 || trail[0].Generation != 2 {
		t.Fatalf("swap trail = %+v, want one record at generation 2", trail)
	}
	rgw := httptest.NewServer(gateway.For(rt.Search, gateway.Options{Topology: watcher.Status}))
	t.Cleanup(rgw.Close)
	health, err := http.Get(rgw.URL + gateway.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	var hr wire.HealthResponse
	err = json.NewDecoder(health.Body).Decode(&hr)
	health.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := hr.Topology; st == nil || st.Generation != 2 || st.LastSwapUnixMs == 0 {
		t.Fatalf("router healthz topology = %+v, want generation 2 with a swap timestamp", st)
	}

	// The adopted diff records the replica exchange.
	diff := watcher.Snapshot().Diff
	if added, removed := diff.ReplicasAdded[dbs[0].name], diff.ReplicasRemoved[dbs[0].name]; len(added) != 1 || added[0] != chaosAddr || len(removed) != 1 || removed[0] != deadAddr {
		t.Errorf("swap diff does not show %s exchanging %s for %s: %+v", dbs[0].name, deadAddr, chaosAddr, diff)
	}

	// The replacement must enter live service: its half-open breaker
	// closes on the prober's first successful trial, after which the
	// owning shard prefers it (it is first in the new replica list).
	// Drive queries until the chaos proxy sees traffic.
	serveDeadline := time.Now().Add(10 * time.Second)
	for proxy.Stats().Proxied == 0 {
		if time.Now().After(serveDeadline) {
			t.Fatalf("chaos-proxied replacement replica never served traffic: %+v", proxy.Stats())
		}
		for _, q := range queries {
			if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5}); err != nil {
				t.Fatalf("post-swap query %q: %v", q, err)
			}
		}
	}

	// Rankings after the swap stay bit-identical to the single-process
	// baseline (the replacement serves the same database).
	for _, q := range queries {
		want, err := baseline.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		got, err := rt.Search(context.Background(), repro.SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
		if err != nil {
			t.Fatalf("cluster %q after swap: %v", q, err)
		}
		if !reflect.DeepEqual(want.Selections, got.Selections) {
			t.Errorf("selections diverge for %q after swap:\n single: %+v\ncluster: %+v", q, want.Selections, got.Selections)
		}
		if len(want.Results) == 0 {
			t.Fatalf("baseline returned no results for %q", q)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Errorf("rankings diverge for %q after swap:\n single: %+v\ncluster: %+v", q, want.Results, got.Results)
		}
	}

	// Breaker carryover and cleanup on the owning shard: the surviving
	// replica's breaker is still there, the newcomer's exists, and the
	// dead replica's is gone — its drain released it as its last call
	// returned, long before the queries above finished.
	names := make(map[string]bool)
	for _, b := range breakerNames(shardMs) {
		names[b] = true
	}
	if deadKey := dbs[0].name + "@" + deadAddr; names[deadKey] {
		t.Errorf("dead replica's breaker %s still present after its calls drained", deadKey)
	}
	if !names[dbs[0].name+"@"+chaosAddr] {
		t.Errorf("no breaker for the swapped-in replica %s@%s", dbs[0].name, chaosAddr)
	}
	if !names[dbs[0].name+"@"+replicaAddrs[dbs[0].name][1]] {
		t.Errorf("surviving replica's breaker did not carry over the swap")
	}

	// Retry volume stays inside the cluster retry budget: per process,
	// retries + hedges ≤ ratio × successes + burst (defaults 0.2 / 10).
	for i, sm := range shardMs {
		reg := sm.Metrics()
		retries := reg.Counter("wire_client_retries_total").Value()
		hedges := reg.Counter("search_hedges_total").Value()
		succ := reg.Counter("wire_requests_total").Value() - reg.Counter("wire_request_errors_total").Value()
		bound := 0.2*float64(succ) + 10
		if float64(retries+hedges) > bound {
			t.Errorf("shard %d retry volume %d (retries %d + hedges %d) exceeds budget bound %.1f (successes %d)",
				i, retries+hedges, retries, hedges, bound, succ)
		}
	}
}

// breakerNames flattens every shard's breaker set into the keyed names.
func breakerNames(shardMs []*repro.Metasearcher) []string {
	var out []string
	for _, sm := range shardMs {
		for _, b := range sm.Breakers().Snapshot() {
			out = append(out, b.Database)
		}
	}
	return out
}
