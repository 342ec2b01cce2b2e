package shardmap

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

func testTopology() *Topology {
	return &Topology{
		Version: TopologyVersion,
		Shards: []Shard{
			{ID: "shard-0", Addr: "s0:1"},
			{ID: "shard-1", Addr: "s1:1"},
		},
		Databases: []Database{
			{Name: "alpha", Category: "Health", Replicas: []string{"a0:1", "a1:1"}},
			{Name: "beta", Category: "Sports", Replicas: []string{"b0:1"}},
		},
	}
}

// touch bumps the file's mtime past its current value so the
// stat-based change detection cannot miss a same-second rewrite.
func touch(t *testing.T, path string) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	next := st.ModTime().Add(time.Second)
	if err := os.Chtimes(path, next, next); err != nil {
		t.Fatal(err)
	}
}

func writeTopology(t *testing.T, path string, topo *Topology) {
	t.Helper()
	if err := topo.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	touch(t, path)
}

func TestDiffTopologies(t *testing.T) {
	old := testTopology()
	next := testTopology()
	next.Shards = []Shard{
		{ID: "shard-0", Addr: "s0:2"}, // moved
		{ID: "shard-2", Addr: "s2:1"}, // added (shard-1 removed)
	}
	next.Databases = []Database{
		{Name: "alpha", Category: "Health", Replicas: []string{"a1:1", "a2:1"}}, // a0 out, a2 in
		{Name: "gamma", Category: "Health", Replicas: []string{"g0:1"}},         // added (beta removed)
	}
	d := DiffTopologies(old, next)
	want := Diff{
		ShardsAdded:      []string{"shard-2"},
		ShardsRemoved:    []string{"shard-1"},
		ShardsMoved:      []string{"shard-0"},
		DatabasesAdded:   []string{"gamma"},
		DatabasesRemoved: []string{"beta"},
		ReplicasAdded:    map[string][]string{"alpha": {"a2:1"}},
		ReplicasRemoved:  map[string][]string{"alpha": {"a0:1"}},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("diff mismatch:\n got %+v\nwant %+v", d, want)
	}
	if d.Empty() {
		t.Fatal("non-trivial diff reported Empty")
	}
	if d := DiffTopologies(old, testTopology()); !d.Empty() {
		t.Fatalf("identical topologies produced diff %+v", d)
	}
}

func TestWatcherSwapsOnValidChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := testTopology().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	w, err := NewWatcher(path, WatcherOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if g := w.Snapshot().Generation; g != 1 {
		t.Fatalf("initial generation = %d, want 1", g)
	}

	var events []*Snapshot
	w.OnSwap(func(s *Snapshot) error { events = append(events, s); return nil })

	// Unchanged file: no swap, no event.
	if swapped, err := w.Poll(); err != nil || swapped {
		t.Fatalf("poll of unchanged file: swapped=%v err=%v", swapped, err)
	}

	// Rewrite with identical content (new mtime): still no swap.
	writeTopology(t, path, testTopology())
	if swapped, err := w.Poll(); err != nil || swapped {
		t.Fatalf("poll of identical rewrite: swapped=%v err=%v", swapped, err)
	}

	// A real change swaps, bumps the generation, and carries the diff.
	next := testTopology()
	next.Databases[1].Replicas = append(next.Databases[1].Replicas, "b1:1")
	writeTopology(t, path, next)
	swapped, err := w.Poll()
	if err != nil || !swapped {
		t.Fatalf("poll of changed file: swapped=%v err=%v", swapped, err)
	}
	snap := w.Snapshot()
	if snap.Generation != 2 {
		t.Fatalf("generation after swap = %d, want 2", snap.Generation)
	}
	if want := map[string][]string{"beta": {"b1:1"}}; !reflect.DeepEqual(snap.Diff.ReplicasAdded, want) {
		t.Fatalf("diff.ReplicasAdded = %+v, want %+v", snap.Diff.ReplicasAdded, want)
	}
	if len(events) != 1 || events[0] != snap {
		t.Fatalf("apply hook saw %d snapshots, want exactly the adopted one", len(events))
	}
	if got := reg.Snapshot().Gauges["topology_generation"]; got != 2 {
		t.Fatalf("topology_generation gauge = %v, want 2", got)
	}
	if got := reg.Snapshot().Counters["topology_reloads_total"]; got != 1 {
		t.Fatalf("topology_reloads_total = %d, want 1", got)
	}
}

func TestWatcherRejectsInvalidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := testTopology().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	w, err := NewWatcher(path, WatcherOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	old := w.Snapshot()

	// Torn/garbage write: old snapshot kept, error counted.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	touch(t, path)
	swapped, err := w.Poll()
	if swapped || err == nil {
		t.Fatalf("poll of garbage file: swapped=%v err=%v", swapped, err)
	}
	if w.Snapshot() != old {
		t.Fatal("invalid file replaced the snapshot")
	}
	if got := reg.Snapshot().Counters["topology_reload_errors_total"]; got != 1 {
		t.Fatalf("topology_reload_errors_total = %d, want 1", got)
	}

	// The bad file's stat is remembered: no re-parse churn.
	if swapped, err := w.Poll(); swapped || err != nil {
		t.Fatalf("re-poll of same bad file: swapped=%v err=%v", swapped, err)
	}

	// Semantically invalid (no shards): also rejected.
	bad := testTopology()
	bad.Shards = nil
	writeTopology(t, path, bad)
	if swapped, err := w.Poll(); swapped || err == nil {
		t.Fatalf("poll of shardless topology: swapped=%v err=%v", swapped, err)
	}
	if w.Snapshot() != old {
		t.Fatal("invalid topology replaced the snapshot")
	}

	// A subsequent valid edit recovers.
	next := testTopology()
	next.Shards = next.Shards[:1]
	writeTopology(t, path, next)
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("recovery poll: swapped=%v err=%v", swapped, err)
	}
	if g := w.Snapshot().Generation; g != 2 {
		t.Fatalf("generation after recovery = %d, want 2 (rejected reloads must not burn generations)", g)
	}
}

// TestWatcherPollsOnSchedule: Poll scheduled by clock.Every picks up a
// rewrite at the first tick after it, and the apply hook runs on the
// schedule's goroutine before the next wait starts.
func TestWatcherPollsOnSchedule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := testTopology().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	w, err := NewWatcher(path, WatcherOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan int64, 16)
	w.OnSwap(func(s *Snapshot) error { ch <- s.Generation; return nil })
	clk := clock.NewFake()
	stop := clock.Every(clk, 2*time.Second, func(context.Context) { w.Poll() })
	defer stop()

	// A tick over the unchanged file publishes nothing.
	clk.BlockUntil(1)
	clk.Advance(2 * time.Second)
	clk.BlockUntil(1)
	if len(ch) != 0 {
		t.Fatal("a poll of the unchanged file published a snapshot")
	}

	next := testTopology()
	next.Databases[0].Replicas = next.Databases[0].Replicas[:1]
	writeTopology(t, path, next)
	clk.Advance(2 * time.Second)
	clk.BlockUntil(1)
	select {
	case gen := <-ch:
		if gen != 2 {
			t.Fatalf("watched swap generation = %d, want 2", gen)
		}
	default:
		t.Fatal("the tick after the rewrite did not publish it")
	}
	stop()
	stop() // idempotent
}

// TestWatcherKeepsRefusedSnapshot: a snapshot the apply hook refuses is
// handled like an invalid file. Every view of the process — Snapshot,
// the gauge, Status and /debug/topology — still reads generation 1, the
// refusal is counted, the same file is not offered again, and the next
// edit becomes generation 2 with its Diff taken against generation 1.
func TestWatcherKeepsRefusedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := testTopology().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	w, err := NewWatcher(path, WatcherOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake()
	w.clock = clk
	refusal := errors.New("shard left the topology")
	offered := 0
	w.OnSwap(func(s *Snapshot) error {
		offered++
		if offered == 1 {
			return refusal
		}
		return nil
	})
	type view struct {
		Generation     int64  `json:"generation"`
		LastSwapUnixMs int64  `json:"last_swap_unix_ms"`
		Swaps          []Swap `json:"swaps"`
	}
	served := func() view {
		t.Helper()
		rec := httptest.NewRecorder()
		w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/topology", nil))
		var v view
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("/debug/topology: %v", err)
		}
		return v
	}

	refused := testTopology()
	refused.Databases[1].Replicas = append(refused.Databases[1].Replicas, "b1:1")
	writeTopology(t, path, refused)
	if swapped, err := w.Poll(); swapped || !errors.Is(err, refusal) {
		t.Fatalf("poll of a refused snapshot: swapped=%v err=%v, want the hook's error", swapped, err)
	}
	if g := w.Snapshot().Generation; g != 1 {
		t.Fatalf("Snapshot generation after refusal = %d, want 1", g)
	}
	if got := reg.Snapshot().Gauges["topology_generation"]; got != 1 {
		t.Fatalf("topology_generation gauge after refusal = %v, want 1", got)
	}
	if st := w.Status(); st.Generation != 1 || st.LastSwapUnixMs != 0 {
		t.Fatalf("Status after refusal = %+v, want generation 1 and no swap", st)
	}
	if v := served(); v.Generation != 1 || v.LastSwapUnixMs != 0 || len(v.Swaps) != 0 {
		t.Fatalf("/debug/topology after refusal = %+v, want generation 1 and no swaps", v)
	}
	if got := reg.Snapshot().Counters["topology_reload_errors_total"]; got != 1 {
		t.Fatalf("topology_reload_errors_total = %d, want 1", got)
	}
	if got := reg.Snapshot().Counters["topology_reloads_total"]; got != 0 {
		t.Fatalf("topology_reloads_total = %d, want 0", got)
	}

	// The refused file's stat is remembered: it is not offered again.
	if swapped, err := w.Poll(); swapped || err != nil || offered != 1 {
		t.Fatalf("re-poll of the refused file: swapped=%v err=%v offered=%d, want no second offer", swapped, err, offered)
	}

	// The next edit is generation 2, diffed against generation 1: it
	// carries the refused edit's replica as well as its own.
	clk.Advance(time.Minute)
	next := testTopology()
	next.Databases[0].Replicas = append(next.Databases[0].Replicas, "a2:1")
	next.Databases[1].Replicas = append(next.Databases[1].Replicas, "b1:1")
	writeTopology(t, path, next)
	if swapped, err := w.Poll(); !swapped || err != nil {
		t.Fatalf("poll of the next edit: swapped=%v err=%v", swapped, err)
	}
	snap := w.Snapshot()
	if snap.Generation != 2 {
		t.Fatalf("generation after the next edit = %d, want 2", snap.Generation)
	}
	want := map[string][]string{"alpha": {"a2:1"}, "beta": {"b1:1"}}
	if !reflect.DeepEqual(snap.Diff.ReplicasAdded, want) {
		t.Fatalf("diff.ReplicasAdded = %+v, want %+v (taken against generation 1)", snap.Diff.ReplicasAdded, want)
	}
	if got := reg.Snapshot().Gauges["topology_generation"]; got != 2 {
		t.Fatalf("topology_generation gauge = %v, want 2", got)
	}
	swapMs := clk.Now().UnixMilli()
	if st := w.Status(); st.Generation != 2 || st.LastSwapUnixMs != swapMs {
		t.Fatalf("Status = %+v, want generation 2 swapped at %d", st, swapMs)
	}
	v := served()
	if v.Generation != 2 || v.LastSwapUnixMs != swapMs || len(v.Swaps) != 1 || v.Swaps[0].Generation != 2 ||
		!reflect.DeepEqual(v.Swaps[0].Diff.ReplicasAdded, want) {
		t.Fatalf("/debug/topology = %+v, want generation 2 with one swap carrying the diff", v)
	}
}
