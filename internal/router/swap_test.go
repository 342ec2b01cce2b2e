package router

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

// snapshotFor wraps next the way shardmap.Watcher offers it after prev.
func snapshotFor(prev, next *shardmap.Topology, gen int64) *shardmap.Snapshot {
	return &shardmap.Snapshot{Topology: next, Generation: gen, LoadedAt: time.Now(), Diff: shardmap.DiffTopologies(prev, next)}
}

// watchTopology saves topo to a file and watches it with rt.ApplyTopology
// as the one apply hook, the way `route` wires its router.
func watchTopology(t *testing.T, rt *Router, topo *shardmap.Topology, reg *telemetry.Registry) (*shardmap.Watcher, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := topo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	w, err := shardmap.NewWatcher(path, shardmap.WatcherOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	w.OnSwap(rt.ApplyTopology)
	return w, path
}

// rewrite saves topo over path with an mtime the stat-based watcher
// cannot miss.
func rewrite(t *testing.T, path string, topo *shardmap.Topology) {
	t.Helper()
	if err := topo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

func setStates(s *resilience.Set) map[string]string {
	out := make(map[string]string)
	for _, snap := range s.Snapshot() {
		out[snap.Database] = snap.State
	}
	return out
}

func TestApplyTopologyCarriesBreakerState(t *testing.T) {
	a := newFakeShard(t, reply())
	b := newFakeShard(t, reply())
	reg := telemetry.NewRegistry()
	breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clock.NewFake()}, reg)
	rt, err := New(testTopology(a, b), Options{Metrics: reg, Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	watcher, path := watchTopology(t, rt, testTopology(a, b), reg)

	// Trip shard-a's breaker: the swap must not forget it.
	ba := breakers.Get("shard-a")
	for i := 0; i < 4; i++ {
		ba.Allow()
		ba.Record(false)
	}
	if got := ba.State(); got != resilience.Open {
		t.Fatalf("shard-a breaker = %v, want open", got)
	}

	// New topology: shard-a survives (same addr), shard-b is removed,
	// shard-c appears.
	c := newFakeShard(t, reply())
	next := testTopology(a, b)
	next.Shards = []shardmap.Shard{
		{ID: "shard-a", Addr: a.addr()},
		{ID: "shard-c", Addr: c.addr()},
	}
	rewrite(t, path, next)
	if swapped, err := watcher.Poll(); err != nil || !swapped {
		t.Fatalf("poll of the rewrite: swapped=%v err=%v", swapped, err)
	}
	diff := watcher.Snapshot().Diff
	if len(diff.ShardsAdded) != 1 || diff.ShardsAdded[0] != "shard-c" {
		t.Fatalf("ShardsAdded = %v, want [shard-c]", diff.ShardsAdded)
	}
	if len(diff.ShardsRemoved) != 1 || diff.ShardsRemoved[0] != "shard-b" {
		t.Fatalf("ShardsRemoved = %v, want [shard-b]", diff.ShardsRemoved)
	}
	if g := watcher.Snapshot().Generation; g != 2 {
		t.Fatalf("Generation = %d, want 2", g)
	}

	states := setStates(breakers)
	if states["shard-a"] != "open" {
		t.Fatalf("surviving shard-a breaker = %q, want open (state must carry over)", states["shard-a"])
	}
	if _, ok := states["shard-b"]; ok {
		t.Fatal("removed shard-b breaker still in the set")
	}
	// An added shard's breaker must start closed, not half-open: a
	// half-open breaker admits a single trial, and concurrent queries
	// would skip the newcomer and lose its coverage.
	if got := breakers.Get("shard-c").State(); got != resilience.Closed {
		t.Fatalf("added shard-c breaker = %v, want closed", got)
	}

	// The live fan-out uses the new ring: shard-a is held back by its
	// carried-over open breaker, so only shard-c answers; shard-b must
	// see no traffic.
	before := b.calls.Load()
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3}); err != nil {
		t.Fatalf("search after swap: %v", err)
	}
	if b.calls.Load() != before {
		t.Fatal("removed shard-b still receives fan-out traffic")
	}
	if c.calls.Load() == 0 {
		t.Fatal("added shard-c received no fan-out traffic")
	}

	st := watcher.Status()
	if st.Generation != 2 || st.LastSwapUnixMs == 0 {
		t.Fatalf("TopologyStatus = %+v, want generation 2 with a swap timestamp", st)
	}
	if hist := watcher.Swaps(); len(hist) != 1 || hist[0].Generation != 2 {
		t.Fatalf("SwapHistory = %+v, want one record at generation 2", hist)
	}
	if got := reg.Counter("topology_reloads_total").Value(); got != 1 {
		t.Fatalf("topology_reloads_total = %v, want 1", got)
	}
	if got := reg.Gauge("topology_generation").Value(); got != 2 {
		t.Fatalf("topology_generation gauge = %v, want 2", got)
	}
}

func TestApplyTopologyMovedShardKeepsBreaker(t *testing.T) {
	a := newFakeShard(t, reply())
	breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clock.NewFake()}, nil)
	rt, err := New(testTopology(a), Options{Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	ba := breakers.Get("shard-a")
	for i := 0; i < 4; i++ {
		ba.Allow()
		ba.Record(false)
	}

	// Same shard ID at a new address: the breaker describes the
	// backend, so its state survives the move.
	moved := newFakeShard(t, reply())
	next := testTopology(a)
	next.Shards[0].Addr = moved.addr()
	snap := snapshotFor(testTopology(a), next, 2)
	if err := rt.ApplyTopology(snap); err != nil {
		t.Fatal(err)
	}
	if moved := snap.Diff.ShardsMoved; len(moved) != 1 || moved[0] != "shard-a" {
		t.Fatalf("ShardsMoved = %v, want [shard-a]", moved)
	}
	if got := breakers.Get("shard-a").State(); got != resilience.Open {
		t.Fatalf("moved shard-a breaker = %v, want open", got)
	}
	if got := rt.Shards()[0].Addr; got != moved.addr() {
		t.Fatalf("ring addr = %q, want %q", got, moved.addr())
	}
}

// TestProbeFollowsTopologySwap: a running probe schedule reads the live
// ring at every sweep, so a shard that joins with a tripped breaker is
// probed — and re-admitted — on the first sweep after the swap, with
// nothing told to retarget.
func TestProbeFollowsTopologySwap(t *testing.T) {
	a := newFakeShard(t, reply())
	b := newFakeShard(t, reply())
	clk := clock.NewFake()
	breakers := resilience.NewSet(resilience.BreakerOptions{Clock: clk}, nil)
	rt, err := New(testTopology(a), Options{Breakers: breakers})
	if err != nil {
		t.Fatal(err)
	}
	stop := clock.Every(clk, time.Second, rt.Probe)
	defer stop()

	bb := breakers.Get("shard-b")
	for i := 0; i < 4; i++ {
		bb.Allow()
		bb.Record(false)
	}
	clk.BlockUntil(1)
	if err := rt.ApplyTopology(snapshotFor(testTopology(a), testTopology(a, b), 2)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(resilience.BreakerCooldown)
	clk.BlockUntil(1) // the sweep that fired is done
	if got := bb.State(); got != resilience.Closed {
		t.Fatalf("joined shard-b breaker = %v after one sweep, want closed", got)
	}
	if sh := rt.ShardHealth(); len(sh) != 2 || sh[1].ID != "shard-b" || sh[1].LastProbe != "ok" {
		t.Fatalf("ShardHealth = %+v, want shard-b last probed ok", sh)
	}
}

func TestApplyTopologyRejectsInvalid(t *testing.T) {
	a := newFakeShard(t, reply())
	rt, err := New(testTopology(a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ApplyTopology(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	bad := testTopology(a)
	bad.Shards = nil
	if err := rt.ApplyTopology(snapshotFor(testTopology(a), bad, 2)); err == nil {
		t.Fatal("shardless topology accepted")
	}
	if got := rt.Shards(); len(got) != 1 || got[0].Addr != a.addr() {
		t.Fatalf("ring = %+v after rejected swaps, want the boot-time shard-a", got)
	}
}

func TestBudgetFundedShardRetry(t *testing.T) {
	a := newFakeShard(t, reply())
	a.status.Store(500) // persistent transient failure
	reg := telemetry.NewRegistry()
	budget := resilience.NewBudget(resilience.BudgetOptions{Metrics: reg})
	for budget.Tokens() > 1 {
		budget.TrySpend()
	}
	rt, err := New(testTopology(a), Options{Metrics: reg, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3}); err == nil {
		t.Fatal("want error with the only shard failing")
	}
	// One token left: the first query's failure funds exactly one retry,
	// the next query's cannot.
	if got := a.calls.Load(); got != 2 {
		t.Fatalf("shard calls = %d, want 2 (first attempt + one funded retry)", got)
	}
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3}); err == nil {
		t.Fatal("want error with the only shard failing")
	}
	if got := a.calls.Load(); got != 3 {
		t.Fatalf("shard calls = %d, want 3 (budget exhausted, no second retry)", got)
	}
	if got := reg.Counter("router_shard_retries_total").Value(); got != 1 {
		t.Fatalf("router_shard_retries_total = %v, want 1", got)
	}
	if got := reg.Counter("retry_budget_exhausted_total").Value(); got == 0 {
		t.Fatal("retry_budget_exhausted_total = 0, want refusals counted")
	}

	// Without a budget of its own the router builds a private one: the
	// retry is still funded, not switched off.
	b := newFakeShard(t, reply())
	b.status.Store(500)
	rt, err = New(testTopology(b), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3}); err == nil {
		t.Fatal("want error with the only shard failing")
	}
	if got := b.calls.Load(); got != 2 {
		t.Fatalf("shard calls = %d with no Options.Budget, want 2 (first attempt + one retry from the private budget)", got)
	}
}

// TestShardRetryBacksOff: the router waits out the backoff on its clock
// before it retries a shard's transient failure, as every retry does.
func TestShardRetryBacksOff(t *testing.T) {
	a := newFakeShard(t, reply())
	a.status.Store(503)
	rt, err := New(testTopology(a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake()
	rt.clock = clk
	done := make(chan error, 1)
	go func() {
		_, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3})
		done <- err
	}()
	clk.BlockUntil(1) // the first call failed; the retry waits
	if got := a.calls.Load(); got != 1 {
		t.Fatalf("shard calls = %d while the retry waits, want 1", got)
	}
	clk.Advance(resilience.BackoffMax)
	if err := <-done; err == nil {
		t.Fatal("want error with the only shard failing")
	}
	if got := a.calls.Load(); got != 2 {
		t.Fatalf("shard calls = %d after the backoff, want 2", got)
	}
}

// TestShardPermanentErrorNotRetried: a shard's 4xx is the request's
// fault, not the shard's moment — the router does not retry it, however
// funded its budget.
func TestShardPermanentErrorNotRetried(t *testing.T) {
	a := newFakeShard(t, reply())
	a.status.Store(400)
	reg := telemetry.NewRegistry()
	rt, err := New(testTopology(a), Options{Metrics: reg, Budget: resilience.NewBudget(resilience.BudgetOptions{})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Search(context.Background(), repro.SearchRequest{Query: "q", MaxDBs: 3}); err == nil {
		t.Fatal("want error with the only shard refusing the request")
	}
	if got := a.calls.Load(); got != 1 {
		t.Fatalf("shard calls = %d, want 1 (a 4xx is not retried)", got)
	}
	if got := reg.Counter("router_shard_retries_total").Value(); got != 0 {
		t.Fatalf("router_shard_retries_total = %v, want 0", got)
	}
}
