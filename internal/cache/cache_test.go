package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

func TestGetPutLRU(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Name: "t", Capacity: 3, Shards: 1, Metrics: reg})
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now the LRU entry; inserting "d" must evict it.
	c.Put("d", 4)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing", k)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["t_evictions_total"]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := snap.Gauges["t_entries"]; got != 3 {
		t.Errorf("entries gauge = %v, want 3", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := clock.NewFake()
	c := New(Options{Name: "t", TTL: time.Minute, clock: clk})
	c.Put("k", "v")
	clk.Advance(time.Minute)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry missing at the end of its TTL")
	}
	clk.Advance(time.Nanosecond)
	if _, ok := c.Get("k"); ok {
		t.Error("expired entry returned")
	}
}

func TestGenerationInvalidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Name: "t", Metrics: reg})
	c.Put("k", "v")
	c.Invalidate()
	if _, ok := c.Get("k"); ok {
		t.Error("stale-generation entry returned")
	}
	c.Put("k", "v2")
	if v, ok := c.Get("k"); !ok || v.(string) != "v2" {
		t.Errorf("post-invalidation Get = %v, %v", v, ok)
	}
	if got := reg.Snapshot().Counters["t_invalidations_total"]; got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
}

func TestDoCachesAndCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Name: "t", Metrics: reg})
	loads := 0
	load := func() (interface{}, error) { loads++; return 42, nil }
	v, hit, collapsed, err := c.Do(context.Background(), "k", load)
	if err != nil || v.(int) != 42 || hit || collapsed {
		t.Fatalf("first Do = %v hit=%v collapsed=%v err=%v", v, hit, collapsed, err)
	}
	v, hit, _, err = c.Do(context.Background(), "k", load)
	if err != nil || v.(int) != 42 || !hit {
		t.Fatalf("second Do = %v hit=%v err=%v", v, hit, err)
	}
	if loads != 1 {
		t.Errorf("loader ran %d times, want 1", loads)
	}
	snap := reg.Snapshot()
	if snap.Counters["t_hits_total"] != 1 || snap.Counters["t_misses_total"] != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			snap.Counters["t_hits_total"], snap.Counters["t_misses_total"])
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New(Options{Name: "t"})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		_, _, _, err := c.Do(context.Background(), "k", func() (interface{}, error) {
			calls++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Do err = %v, want boom", err)
		}
	}
	if calls != 2 {
		t.Errorf("failed load cached: ran %d times, want 2", calls)
	}
}

func TestDoCollapsesConcurrentLoads(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Options{Name: "t", Metrics: reg})
	var loads atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	var collapsedN atomic.Int64
	results := make([]interface{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, collapsed, err := c.Do(context.Background(), "k", func() (interface{}, error) {
				loads.Add(1)
				<-gate // hold the load open until all callers have queued
				return "answer", nil
			})
			if err != nil {
				t.Error(err)
			}
			if collapsed {
				collapsedN.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Wait until the other callers have collapsed onto the in-flight
	// load, then release the single loader.
	for reg.Counter("t_collapsed_total").Value() < n-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := loads.Load(); got != 1 {
		t.Errorf("loader ran %d times, want 1", got)
	}
	if got := collapsedN.Load(); got != n-1 {
		t.Errorf("collapsed callers = %d, want %d", got, n-1)
	}
	for i, v := range results {
		if v != "answer" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	if got := reg.Snapshot().Counters["t_collapsed_total"]; got != n-1 {
		t.Errorf("collapsed counter = %d, want %d", got, n-1)
	}
}

func TestDoWaiterHonorsContext(t *testing.T) {
	c := New(Options{Name: "t"})
	gate := make(chan struct{})
	loaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (interface{}, error) {
			close(loaderIn)
			<-gate
			return 1, nil
		})
	}()
	<-loaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, collapsed, err := c.Do(ctx, "k", func() (interface{}, error) { return 2, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter err = %v, want deadline exceeded", err)
	}
	if !collapsed {
		t.Error("waiter not marked collapsed")
	}
	close(gate)
}

func TestInvalidationDuringLoadNotCached(t *testing.T) {
	c := New(Options{Name: "t"})
	v, _, _, err := c.Do(context.Background(), "k", func() (interface{}, error) {
		c.Invalidate() // summaries rebuilt while this load was in flight
		return "stale", nil
	})
	if err != nil || v.(string) != "stale" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("value loaded under an old generation was cached")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache hit")
	}
	c.Put("k", 1)
	c.Invalidate()
	if c.Len() != 0 || c.Generation() != 0 {
		t.Error("nil cache nonzero state")
	}
	v, hit, collapsed, err := c.Do(context.Background(), "k", func() (interface{}, error) { return 7, nil })
	if err != nil || v.(int) != 7 || hit || collapsed {
		t.Errorf("nil Do = %v hit=%v collapsed=%v err=%v", v, hit, collapsed, err)
	}
}

func TestShardedCapacity(t *testing.T) {
	c := New(Options{Name: "t", Capacity: 64, Shards: 8})
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	if got := c.Len(); got > 64 {
		t.Errorf("Len = %d, want <= 64", got)
	}
}
