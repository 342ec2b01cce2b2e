// Package cache is the query-serving cache behind the metasearcher's
// hot path: a sharded in-memory map with per-shard LRU eviction, TTL
// expiry, generation-keyed invalidation, and singleflight collapsing of
// concurrent identical loads.
//
// The selection decision of the paper depends only on the analyzed
// query terms and the current content summaries: between summary
// rebuilds it is a pure function, and therefore safe to cache. The
// generation counter encodes "which summaries": bumping it (on
// Save/Load/rebuild) marks every existing entry stale at once — an O(1)
// invalidation that never blocks readers behind a flush. Stale entries
// die lazily, evicted when next touched or when LRU pressure reaches
// them.
//
// Every cache reports its behavior through a telemetry.Registry under
// its own name prefix: <name>_hits_total, <name>_misses_total,
// <name>_evictions_total, <name>_collapsed_total,
// <name>_invalidations_total (counters), and <name>_entries,
// <name>_inflight_loads (gauges) — the same vocabulary the wire doc
// cache reports under wire_doc_cache_*.
package cache

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/telemetry"
)

// Options configures a Cache.
type Options struct {
	// Name prefixes the cache's metric series (e.g. "selection_cache" →
	// selection_cache_hits_total). Required when Metrics is set.
	Name string
	// Capacity bounds the total number of entries across all shards
	// (default 1024). The per-shard bound is Capacity/Shards, rounded up.
	Capacity int
	// Shards is the number of independently locked segments (default
	// 16). More shards mean less lock contention under concurrent load.
	Shards int
	// TTL bounds an entry's lifetime from insertion. 0 means entries
	// never expire (generation bumps and LRU pressure still evict them).
	TTL time.Duration
	// Metrics receives the cache's series (may be nil).
	Metrics *telemetry.Registry

	// clock times TTL expiry (nil: real time; tests set a fake).
	clock clock.Clock
}

// Cache is a sharded LRU+TTL cache. All methods are safe for concurrent
// use and safe on a nil receiver (a nil *Cache never hits, never
// collapses, and Do just runs the loader), so callers can disable
// caching without conditionals.
type Cache struct {
	opts   Options
	shards []*shard
	seed   maphash.Seed
	gen    atomic.Uint64
	clock  clock.Clock

	hits          *telemetry.Counter
	misses        *telemetry.Counter
	evictions     *telemetry.Counter
	collapses     *telemetry.Counter
	invalidations *telemetry.Counter
	entries       *telemetry.Gauge
	inflight      *telemetry.Gauge
}

type shard struct {
	mu    sync.Mutex
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
	calls map[string]*call
	cap   int
}

type entry struct {
	key string
	val interface{}
	gen uint64
	exp time.Time // zero = no expiry
}

// call is one in-flight load that concurrent identical requests collapse
// onto. The done channel closes when the loader finishes, so waiters can
// honor their own context instead of being held hostage by the loader.
type call struct {
	done chan struct{}
	val  interface{}
	err  error
}

// New creates a cache. Metric series are registered immediately so an
// exposition endpoint shows them at zero before traffic arrives.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.Shards > opts.Capacity {
		opts.Shards = opts.Capacity
	}
	perShard := (opts.Capacity + opts.Shards - 1) / opts.Shards
	reg, n := opts.Metrics, opts.Name
	c := &Cache{
		opts:  opts,
		seed:  maphash.MakeSeed(),
		clock: clock.Or(opts.clock),

		hits:          reg.DeclareCounter(n+"_hits_total", "Lookups served from the "+n+" tier."),
		misses:        reg.DeclareCounter(n+"_misses_total", "Lookups the "+n+" tier could not serve."),
		evictions:     reg.DeclareCounter(n+"_evictions_total", "Entries evicted from the "+n+" tier (LRU or expired)."),
		collapses:     reg.DeclareCounter(n+"_collapsed_total", "Lookups that piggybacked on an identical in-flight load ("+n+")."),
		invalidations: reg.DeclareCounter(n+"_invalidations_total", "Generation bumps staling every "+n+" entry at once."),
		entries:       reg.DeclareGauge(n+"_entries", "Live entries in the "+n+" tier."),
		inflight:      reg.DeclareGauge(n+"_inflight_loads", "Loads currently in flight for the "+n+" tier."),
	}
	c.shards = make([]*shard, opts.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			ll:    list.New(),
			byKey: make(map[string]*list.Element),
			calls: make(map[string]*call),
			cap:   perShard,
		}
	}
	return c
}

// shardFor hashes the key onto its shard.
func (c *Cache) shardFor(key string) *shard {
	return c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Generation returns the current generation. Entries inserted under an
// older generation are stale and will never be returned.
func (c *Cache) Generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// Invalidate bumps the generation, instantly staling every cached
// entry. O(1): nothing is scanned or freed eagerly, so queries racing
// the invalidation never block behind it. In-flight loads that began
// under the old generation still deliver their value to waiters, but it
// is not cached.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.gen.Add(1)
	c.invalidations.Inc()
}

// Get returns the cached value for key, if a live (current-generation,
// unexpired) entry exists.
func (c *Cache) Get(key string) (interface{}, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := c.getLocked(s, key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return v, ok
}

// getLocked looks key up in s, removing (and counting as evicted) a
// stale or expired entry it finds in the way. Caller holds s.mu.
func (c *Cache) getLocked(s *shard, key string) (interface{}, bool) {
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen != c.gen.Load() || (!e.exp.IsZero() && c.clock.Now().After(e.exp)) {
		c.removeLocked(s, el)
		return nil, false
	}
	s.ll.MoveToFront(el)
	return e.val, true
}

// Put inserts (or refreshes) one entry under the current generation,
// evicting from the LRU tail once the shard is over capacity.
func (c *Cache) Put(key string, v interface{}) {
	if c == nil {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	c.putLocked(s, key, v, c.gen.Load())
	s.mu.Unlock()
}

// putLocked inserts under the given generation. Caller holds s.mu.
func (c *Cache) putLocked(s *shard, key string, v interface{}, gen uint64) {
	var exp time.Time
	if c.opts.TTL > 0 {
		exp = c.clock.Now().Add(c.opts.TTL)
	}
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*entry)
		e.val, e.gen, e.exp = v, gen, exp
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&entry{key: key, val: v, gen: gen, exp: exp})
	c.entries.Add(1)
	for s.ll.Len() > s.cap {
		c.removeLocked(s, s.ll.Back())
	}
}

// removeLocked drops one element, counting the eviction. Caller holds
// s.mu.
func (c *Cache) removeLocked(s *shard, el *list.Element) {
	s.ll.Remove(el)
	delete(s.byKey, el.Value.(*entry).key)
	c.evictions.Inc()
	c.entries.Add(-1)
}

// Do returns the cached value for key, or runs load exactly once to
// produce it — concurrent Do calls for the same key collapse onto one
// in-flight load (singleflight) and all receive its value and error.
// The value is cached only when load
// succeeds and the generation has not been bumped since the load began
// (a load racing an invalidation must not resurrect pre-invalidation
// state).
//
// The returned flags describe how this call was answered: hit means the
// value came from the cache without any load; collapsed means this call
// waited on another caller's in-flight load. A waiter whose ctx ends
// before the load finishes returns ctx.Err() — the load itself keeps
// running under the loader's control, so one impatient waiter cannot
// cancel everyone's answer.
//
// On a nil *Cache, Do simply runs load.
func (c *Cache) Do(ctx context.Context, key string, load func() (interface{}, error)) (v interface{}, hit, collapsed bool, err error) {
	if c == nil {
		v, err = load()
		return v, false, false, err
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if v, ok := c.getLocked(s, key); ok {
		s.mu.Unlock()
		c.hits.Inc()
		return v, true, false, nil
	}
	c.misses.Inc()
	if cl, ok := s.calls[key]; ok {
		s.mu.Unlock()
		c.collapses.Inc()
		select {
		case <-cl.done:
			return cl.val, false, true, cl.err
		case <-ctx.Done():
			return nil, false, true, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{})}
	s.calls[key] = cl
	gen := c.gen.Load()
	s.mu.Unlock()

	c.inflight.Add(1)
	cl.val, cl.err = load()
	c.inflight.Add(-1)

	s.mu.Lock()
	delete(s.calls, key)
	if cl.err == nil && gen == c.gen.Load() {
		c.putLocked(s, key, cl.val, gen)
	}
	s.mu.Unlock()
	close(cl.done)
	return cl.val, false, false, cl.err
}

// Len reports how many entries the cache currently holds (stale and
// expired entries that have not been touched since count too — they die
// lazily).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
