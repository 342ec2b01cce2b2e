package shardmap

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// topo builds a valid topology with n shards, k databases, and r
// replicas per database.
func topo(n, k, rep, replicas int) *Topology {
	t := &Topology{Version: TopologyVersion, Replication: rep}
	for i := 0; i < n; i++ {
		t.Shards = append(t.Shards, Shard{
			ID:   fmt.Sprintf("shard-%02d", i),
			Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i),
		})
	}
	for i := 0; i < k; i++ {
		d := Database{Name: fmt.Sprintf("www.db-%03d.example", i)}
		for j := 0; j < replicas; j++ {
			d.Replicas = append(d.Replicas, fmt.Sprintf("127.0.0.1:%d", 10000+i*replicas+j))
		}
		t.Databases = append(t.Databases, d)
	}
	return t
}

// TestOwnersDeterministic pins that assignment is a pure function of
// the topology: same file, same owners — including across a JSON
// round trip (what router and shards actually do) and across shard
// declaration order (only IDs matter, not file position).
func TestOwnersDeterministic(t *testing.T) {
	tp := topo(4, 50, 2, 2)
	a, err := tp.Owners()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tp2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp2.Owners()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("owners diverge across a topology file round trip")
	}

	// Reverse the shard declaration order: the partition must not move.
	tp3 := topo(4, 50, 2, 2)
	for i, j := 0, len(tp3.Shards)-1; i < j; i, j = i+1, j-1 {
		tp3.Shards[i], tp3.Shards[j] = tp3.Shards[j], tp3.Shards[i]
	}
	c, err := tp3.Owners()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("owners depend on shard declaration order")
	}
}

// TestOwnersGolden pins a concrete assignment so an accidental change
// to the hash function, vnode labeling, or walk order — which would
// silently split a mixed-version cluster's world view — fails loudly.
func TestOwnersGolden(t *testing.T) {
	tp := topo(3, 6, 1, 1)
	owners, err := tp.Owners()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"www.db-000.example": "shard-01",
		"www.db-001.example": "shard-01",
		"www.db-002.example": "shard-01",
		"www.db-003.example": "shard-00",
		"www.db-004.example": "shard-02",
		"www.db-005.example": "shard-00",
	}
	for name, shard := range want {
		if got := strings.Join(owners[name], ","); got != shard {
			t.Errorf("%s assigned to %q, golden says %q", name, got, shard)
		}
	}
}

// TestRemapBound pins the consistent-hashing contract: adding or
// removing one shard moves at most ~K/N keys, not a full reshuffle.
func TestRemapBound(t *testing.T) {
	const K = 200
	before, err := topo(4, K, 1, 1).Owners()
	if err != nil {
		t.Fatal(err)
	}
	grown := topo(5, K, 1, 1)
	after, err := grown.Owners()
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for name, o := range before {
		if !reflect.DeepEqual(o, after[name]) {
			moved++
		}
	}
	// Ideal movement for a 4→5 join is K/5 = 40; the bound the design
	// promises is ≤ K/N = 50 (bounded-load rebalancing may move a few
	// extra keys whose old shard sat at its cap).
	bound := K / 4
	if moved > bound {
		t.Fatalf("shard join moved %d/%d keys, want <= %d", moved, K, bound)
	}
	if moved == 0 {
		t.Fatal("shard join moved no keys; the new shard owns nothing")
	}
	t.Logf("join 4→5 moved %d/%d keys (bound %d, ideal %d)", moved, K, bound, K/5)

	// Leave: shrinking back must restore the original assignment
	// exactly (same pure function of the same topology).
	restored, err := topo(4, K, 1, 1).Owners()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, restored) {
		t.Fatal("shard leave did not restore the original assignment")
	}
}

// TestReplicaPlacementDistinct pins that the R owners of any database
// are R distinct shards: co-locating two "replicas" on one shard would
// turn a shard crash into coverage loss.
func TestReplicaPlacementDistinct(t *testing.T) {
	for _, tc := range []struct{ n, k, rep int }{
		{2, 30, 2}, {3, 50, 2}, {5, 100, 3}, {4, 64, 4},
	} {
		owners, err := topo(tc.n, tc.k, tc.rep, 2).Owners()
		if err != nil {
			t.Fatal(err)
		}
		for name, ids := range owners {
			if len(ids) != tc.rep {
				t.Fatalf("n=%d r=%d: %s has %d owners, want %d", tc.n, tc.rep, name, len(ids), tc.rep)
			}
			seen := map[string]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("n=%d r=%d: %s placed twice on %s", tc.n, tc.rep, name, id)
				}
				seen[id] = true
			}
		}
	}
}

// TestBoundedLoad pins the load cap: no shard owns more than
// ceil(LoadFactor · K·R/N) databases, even under the hash skew a plain
// consistent-hash ring would exhibit.
func TestBoundedLoad(t *testing.T) {
	for _, tc := range []struct{ n, k, rep int }{
		{3, 90, 1}, {4, 200, 2}, {7, 300, 1},
	} {
		tp := topo(tc.n, tc.k, tc.rep, 1)
		owners, err := tp.Owners()
		if err != nil {
			t.Fatal(err)
		}
		limit := int(math.Ceil(DefaultLoadFactor * float64(tc.k*tc.rep) / float64(tc.n)))
		load := map[string]int{}
		for _, ids := range owners {
			for _, id := range ids {
				load[id]++
			}
		}
		for id, l := range load {
			if l > limit {
				t.Errorf("n=%d k=%d r=%d: %s owns %d databases, cap is %d", tc.n, tc.k, tc.rep, id, l, limit)
			}
		}
	}
}

// TestShardAssignments pins the per-shard view: every database appears
// on exactly its owners, and the preferred replica index rotates with
// owner rank so R owning shards spread over the database's replicas.
func TestShardAssignments(t *testing.T) {
	tp := topo(3, 24, 2, 2)
	owners, err := tp.Owners()
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]int{}
	prefs := map[string][]int{}
	for _, s := range tp.Shards {
		asgs, err := tp.ShardAssignments(s.ID)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range asgs {
			covered[a.Database]++
			prefs[a.Database] = append(prefs[a.Database], a.Preferred)
			if len(a.Replicas) != 2 {
				t.Fatalf("%s on %s carries %d replicas, want 2", a.Database, s.ID, len(a.Replicas))
			}
			want := false
			for _, id := range owners[a.Database] {
				if id == s.ID {
					want = true
				}
			}
			if !want {
				t.Fatalf("%s assigned to %s, which does not own it", a.Database, s.ID)
			}
		}
	}
	for name, c := range covered {
		if c != 2 {
			t.Fatalf("%s covered by %d shards, want 2", name, c)
		}
		// Two owners, two replicas: preferences must be {0, 1}.
		p := prefs[name]
		if len(p) != 2 || p[0]+p[1] != 1 {
			t.Fatalf("%s preferred replicas %v, want one shard on each replica", name, p)
		}
	}

	if _, err := tp.ShardAssignments("no-such-shard"); err == nil {
		t.Fatal("unknown shard id did not error")
	}
}

// TestTopologyValidate covers the malformed-file rejections.
func TestTopologyValidate(t *testing.T) {
	good := func() *Topology { return topo(2, 4, 2, 2) }
	cases := []struct {
		name  string
		mutil func(*Topology)
	}{
		{"bad version", func(tp *Topology) { tp.Version = 99 }},
		{"no shards", func(tp *Topology) { tp.Shards = nil }},
		{"dup shard", func(tp *Topology) { tp.Shards[1].ID = tp.Shards[0].ID }},
		{"empty shard addr", func(tp *Topology) { tp.Shards[0].Addr = "" }},
		{"no databases", func(tp *Topology) { tp.Databases = nil }},
		{"dup database", func(tp *Topology) { tp.Databases[1].Name = tp.Databases[0].Name }},
		{"no replicas", func(tp *Topology) { tp.Databases[0].Replicas = nil }},
		{"empty replica", func(tp *Topology) { tp.Databases[0].Replicas[0] = "" }},
		{"replication > shards", func(tp *Topology) { tp.Replication = 3 }},
		{"negative load factor", func(tp *Topology) { tp.LoadFactor = 0.5 }},
		{"negative virtual nodes", func(tp *Topology) { tp.VirtualNodes = -1 }},
		{"virtual nodes over the cap", func(tp *Topology) { tp.VirtualNodes = maxVirtualNodes + 1 }},
		{"a billion virtual nodes", func(tp *Topology) { tp.VirtualNodes = 1_000_000_000 }},
	}
	for _, tc := range cases {
		tp := good()
		tc.mutil(tp)
		if err := tp.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed topology", tc.name)
		}
	}
	tp := good()
	tp.VirtualNodes = maxVirtualNodes
	if err := tp.Validate(); err != nil {
		t.Fatalf("topology at the virtual-node cap rejected: %v", err)
	}
	tp = good()
	if err := tp.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	if tp.VirtualNodes != 0 || tp.LoadFactor != 0 {
		t.Fatalf("Validate wrote defaults into the topology: vnodes=%d load=%g", tp.VirtualNodes, tp.LoadFactor)
	}
}

// TestTopologySharedAcrossGoroutines: one topology value is handed to
// the watcher's apply hook and to shards booting side by side, so
// reading it — validating, computing owners or a shard's assignments —
// must not write to it. Run under -race; a zero-valued field (defaults
// in effect) is the case that used to be filled in place.
func TestTopologySharedAcrossGoroutines(t *testing.T) {
	tp := topo(2, 12, 0, 2)
	ids := []string{"shard-00", "shard-01", "shard-00", "shard-01"}
	got := make([][]Assignment, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			var err error
			if got[i], err = tp.ShardAssignments(id); err != nil {
				t.Error(err)
			}
		}(i, id)
	}
	wg.Wait()
	if tp.VirtualNodes != 0 || tp.LoadFactor != 0 || tp.Replication != 0 {
		t.Errorf("reading the topology modified it: vnodes=%d load=%g replication=%d",
			tp.VirtualNodes, tp.LoadFactor, tp.Replication)
	}
	for i, id := range ids {
		want, err := tp.ShardAssignments(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent ShardAssignments(%s) disagrees with the sequential answer", id)
		}
	}
}

// TestTopologyFileRoundTrip covers SaveFile/LoadFile.
func TestTopologyFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	tp := topo(2, 6, 1, 2)
	if err := tp.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tp.Owners()
	b, _ := got.Owners()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("owners diverge after a file round trip")
	}
}
