package repro

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/replica"
	"repro/internal/wire"
)

// Tests of the one scope rule: a database is queried by this process
// exactly when the process holds its live handle. Every database still
// takes part in selection (the shrinkage statistics are collection-wide);
// a selected one without a handle is out of scope — another shard's.

// handled lists the databases the published store holds live handles
// for, sorted.
func handled(m *Metasearcher) []string {
	var out []string
	for _, r := range m.state.Load().dbs {
		if r.db != nil {
			out = append(out, r.src.Name)
		}
	}
	sort.Strings(out)
	return out
}

// TestShardStartIsFirstSwap: a cluster shard starts the way it
// reconfigures — Load the complete store, apply its assignments, run
// one probe sweep. That leaves handles for exactly the assigned
// databases, every replica breaker closed (the sweep was each lazily
// attached replica's identity check and trial), and a Search that is
// the single-process answer restricted to the slice.
func TestShardStartIsFirstSwap(t *testing.T) {
	shards, lexicon := testbedShards(t, 4)
	builder := New(testbedOptions(lexicon))
	for _, s := range shards {
		if err := builder.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := builder.BuildSummaries(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := builder.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The single-process baseline holds every handle.
	baseline := New(testbedOptions(lexicon))
	for _, s := range shards {
		if err := baseline.AddDatabase(NewLocalDatabaseFromTerms(s.name, s.docs), s.category); err != nil {
			t.Fatal(err)
		}
	}
	if err := baseline.LoadFile(path); err != nil {
		t.Fatal(err)
	}

	// The shard's slice: two of the four databases, two dbnode replicas
	// each.
	slice := map[string]bool{shards[0].name: true, shards[2].name: true}
	var assigns []ReplicaAssignment
	for _, s := range shards {
		if !slice[s.name] {
			continue
		}
		a := ReplicaAssignment{Database: s.name, Category: s.category, Preferred: 1}
		for i := 0; i < 2; i++ {
			srv := httptest.NewServer(wire.NewServer(NewLocalDatabaseFromTerms(s.name, s.docs), wire.ServerOptions{Category: s.category}))
			t.Cleanup(srv.Close)
			a.Replicas = append(a.Replicas, strings.TrimPrefix(srv.URL, "http://"))
		}
		assigns = append(assigns, a)
	}

	shard := New(testbedOptions(lexicon))
	if err := shard.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	rep, err := shard.ApplyReplicaAssignments(assigns, replica.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{shards[0].name, shards[2].name}
	sort.Strings(names)
	if !reflect.DeepEqual(rep.Attached, names) || len(rep.Detached) != 0 || len(rep.Unknown) != 0 {
		t.Errorf("first swap report %+v, want attached %v and nothing else", rep, names)
	}
	shard.Probe(context.Background())

	if got := handled(shard); !reflect.DeepEqual(got, names) {
		t.Errorf("handles for %v, want exactly the assigned %v", got, names)
	}
	replicaBreakers := 0
	for _, b := range shard.Breakers().Snapshot() {
		if strings.Contains(b.Database, "@") {
			replicaBreakers++
		}
		if b.State != "closed" {
			t.Errorf("breaker %s is %s after the start-up sweep, want closed", b.Database, b.State)
		}
	}
	if replicaBreakers != 4 {
		t.Errorf("%d replica breakers, want 4 (2 databases × 2 replicas)", replicaBreakers)
	}

	served := 0
	for _, s := range shards {
		q := s.docs[0][0] + " " + s.docs[0][1]
		want, err := baseline.Search(context.Background(), SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := shard.Search(context.Background(), SearchRequest{Query: q, MaxDBs: 3, PerDB: 5})
		if err != nil {
			t.Fatalf("shard %q: %v", q, err)
		}
		if !reflect.DeepEqual(got.Selections, want.Selections) {
			t.Errorf("selections diverge for %q:\n single: %+v\n  shard: %+v", q, want.Selections, got.Selections)
		}
		var onSlice []Result
		for _, r := range want.Results {
			if slice[r.Database] {
				onSlice = append(onSlice, r)
			}
		}
		if !reflect.DeepEqual(got.Results, onSlice) {
			t.Errorf("ranking for %q is not the single-process one on the slice:\n single: %+v\n  shard: %+v", q, onSlice, got.Results)
		}
		served += len(got.Results)
	}
	if served == 0 {
		t.Fatal("the shard answered no document; the queries do not reach its slice")
	}
}

// TestHandlelessDatabaseIsOutOfScope: a database a process loads from a
// save file but never dialed is ranked like any other, and when
// selected it is audited out of scope — never unavailable. Refresh and
// the health probes leave it alone.
func TestHandlelessDatabaseIsOutOfScope(t *testing.T) {
	built, _ := newStoreWorld(t, Options{})
	path := filepath.Join(t.TempDir(), "state.json")
	if err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// This process dials two of the four databases; "ward" and "arena"
	// are in the save file only.
	m := New(Options{KeepStopwords: true, NoStemming: true})
	for _, d := range []struct {
		name, cat string
		words     []string
	}{{"drifty", "Health", storeMedical}, {"stable", "Science", storeSpace}} {
		srv := httptest.NewServer(wire.NewServer(NewLocalDatabaseFromTerms(d.name, corpus(d.words, 80)), wire.ServerOptions{Category: d.cat}))
		t.Cleanup(srv.Close)
		rdb, err := replica.Dial(context.Background(), []string{srv.URL}, replica.Options{Breakers: m.Breakers(), Metrics: m.Metrics()})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddDatabase(rdb, rdb.Category()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.LoadFile(path); err != nil {
		t.Fatal(err)
	}

	resp, err := m.Search(context.Background(), SearchRequest{Query: "heart cancer patient", MaxDBs: 2, PerDB: 5})
	if err != nil {
		t.Fatal(err)
	}
	var selected []string
	for _, s := range resp.Selections {
		selected = append(selected, s.Database)
	}
	sort.Strings(selected)
	if want := []string{"drifty", "ward"}; !reflect.DeepEqual(selected, want) {
		t.Fatalf("selected %v, want %v; the fixture does not select a handleless database", selected, want)
	}
	if len(resp.Results) == 0 {
		t.Error("the dialed database answered nothing")
	}
	for _, n := range m.Audit().Last().Nodes {
		switch {
		case n.Database == "ward" && (!n.OutOfScope || n.Unavailable):
			t.Errorf("handleless ward audited %+v, want out of scope and not unavailable", n.NodeOutcome)
		case n.Database == "drifty" && (n.OutOfScope || n.Unavailable || n.Results == 0):
			t.Errorf("dialed drifty audited %+v, want queried", n.NodeOutcome)
		}
	}
	if got := m.Metrics().Counter("search_out_of_scope_total").Value(); got != 1 {
		t.Errorf("search_out_of_scope_total = %d, want 1", got)
	}
	if got := m.Metrics().Counter("search_db_unavailable_total").Value(); got != 0 {
		t.Errorf("search_db_unavailable_total = %d, want 0", got)
	}

	if got, want := m.RefreshableDatabases(), []string{"drifty", "stable"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RefreshableDatabases = %v, want %v", got, want)
	}
	probed := make(map[string]bool)
	for _, p := range m.state.Load().probeTargets() {
		probed[strings.SplitN(p.Name, "@", 2)[0]] = true
	}
	if want := map[string]bool{"drifty": true, "stable": true}; !reflect.DeepEqual(probed, want) {
		t.Errorf("probe targets cover %v, want %v", probed, want)
	}
}
