package repro

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// ReplicatedDatabaseOptions configures a ReplicatedDatabase.
type ReplicatedDatabaseOptions struct {
	// Preferred is the index of the replica this process tries first
	// under equal health (a shard's affinity replica from the topology,
	// rotated per owner so R owning shards spread over R replicas).
	// Out of range is treated as 0.
	Preferred int
	// Breakers, when non-nil, tracks one circuit breaker per replica
	// under the key "name@addr" — pass the metasearcher's set
	// (Metasearcher.Breakers) so replica states show on /debug/breakers
	// next to the database-level breakers the fan-out keeps. Nil
	// disables replica breakers (every replica is always eligible).
	Breakers *resilience.Set
	// Metrics receives replica_failover_total and
	// replica_exhausted_total, plus the wire client series of every
	// replica (may be nil).
	Metrics *telemetry.Registry
	// Client configures each replica's wire client.
	Client RemoteDatabaseOptions
}

// replicaSet is one immutable routing view of the replicas. Calls load
// the current set once at entry and use it throughout, so a concurrent
// UpdateReplicas never changes the ground under an in-flight call: the
// old set's replicas stay alive until every call that loaded it has
// finished (drain), then the removed ones are closed.
type replicaSet struct {
	preferred int
	replicas  []*RemoteDatabase
	addrs     []string
	keys      []string       // breaker keys, "name@addr"
	inflight  []*replicaLoad // shared with successor sets for surviving replicas
}

// drainTimeout bounds how long a removed replica's drain waits for its
// in-flight calls; anything still running afterwards is a straggler on
// a detached breaker, which is harmless.
const drainTimeout = 10 * time.Second

// replicaLoad is one replica's in-flight call count and, once the
// replica has left the set, the release the last call runs as it leaves.
type replicaLoad struct {
	n       atomic.Int64
	release atomic.Pointer[func()]
}

func (l *replicaLoad) leave() {
	if l.n.Add(-1) == 0 {
		if release := l.release.Load(); release != nil {
			(*release)()
		}
	}
}

// ReplicatedDatabase is one logical text database served by several
// dbnode processes with identical content. It implements
// ContextSearchableDatabase over the replica set with replica-aware
// routing:
//
//   - Replicas are tried in health order: breaker state first (closed
//     before half-open before open), in-flight count second, affinity
//     third — so a hedged duplicate of an in-flight call (the search
//     fan-out's hedge calls QueryContext twice) naturally races a
//     *different* replica, and first success wins.
//   - A failed replica feeds its own breaker and the call fails over
//     to the next (resilience.Do, replicas as the targets); the call
//     errors only when every replica failed.
//   - Each replica is a probe target (ProbeTargets), so an open
//     replica breaker closes as soon as its process recovers.
//   - The replica set is live-reconfigurable (UpdateReplicas): in-flight
//     calls finish on the set they started with, surviving replicas
//     keep their breaker state and in-flight counts, removed replicas
//     are drained and closed, added replicas are dialed lazily with
//     breakers seeded half-open (their first call is the trial).
//
// Safe for concurrent use.
type ReplicatedDatabase struct {
	name     string
	category string
	numDocs  int

	set  atomic.Pointer[replicaSet]
	opts ReplicatedDatabaseOptions // for dialing swap-added replicas

	updateMu sync.Mutex // serializes UpdateReplicas

	breakers  *resilience.Set
	failovers *telemetry.Counter
	exhausted *telemetry.Counter
}

var _ ContextSearchableDatabase = (*ReplicatedDatabase)(nil)

// DialReplicatedDatabase dials every replica address and verifies they
// advertise the same database (same name). All replicas must be
// reachable at dial time; afterwards the database stays usable while
// any one replica is.
func DialReplicatedDatabase(ctx context.Context, addrs []string, opts ReplicatedDatabaseOptions) (*ReplicatedDatabase, error) {
	if len(addrs) == 0 {
		return nil, errors.New("repro: DialReplicatedDatabase needs at least one replica address")
	}
	opts.Client.Metrics = opts.Metrics
	d := &ReplicatedDatabase{
		opts:      opts,
		breakers:  opts.Breakers,
		failovers: opts.Metrics.Counter("replica_failover_total"),
		exhausted: opts.Metrics.Counter("replica_exhausted_total"),
	}
	set := &replicaSet{}
	for i, addr := range addrs {
		r, err := DialRemoteDatabase(ctx, addr, opts.Client)
		if err != nil {
			return nil, fmt.Errorf("repro: replica %d of %d: %w", i+1, len(addrs), err)
		}
		if i == 0 {
			d.name, d.category, d.numDocs = r.Name(), r.Category(), r.NumDocs()
		} else if r.Name() != d.name {
			return nil, fmt.Errorf("repro: replica %s serves database %q, replica %s serves %q — a replica set must serve one database",
				addrs[i], r.Name(), addrs[0], d.name)
		}
		set.replicas = append(set.replicas, r)
		set.addrs = append(set.addrs, addr)
		set.keys = append(set.keys, d.name+"@"+addr)
		set.inflight = append(set.inflight, new(replicaLoad))
	}
	if opts.Preferred >= 0 && opts.Preferred < len(addrs) {
		set.preferred = opts.Preferred
	}
	d.set.Store(set)
	return d, nil
}

// NewReplicatedDatabase builds a replica set without touching the
// network: every replica is a lazy handle (identity verified on first
// contact) with its breaker seeded half-open, so the first call or
// probe to each replica is its trial. This is the handle a topology
// swap attaches to a database that just entered this shard's scope —
// the swap cannot block on dialing nodes that may still be booting.
func NewReplicatedDatabase(name, category string, numDocs int, addrs []string, opts ReplicatedDatabaseOptions) (*ReplicatedDatabase, error) {
	if len(addrs) == 0 {
		return nil, errors.New("repro: NewReplicatedDatabase needs at least one replica address")
	}
	if name == "" {
		return nil, errors.New("repro: NewReplicatedDatabase needs the database name (lazy handles adopt it)")
	}
	opts.Client.Metrics = opts.Metrics
	d := &ReplicatedDatabase{
		name:      name,
		category:  category,
		numDocs:   numDocs,
		opts:      opts,
		breakers:  opts.Breakers,
		failovers: opts.Metrics.Counter("replica_failover_total"),
		exhausted: opts.Metrics.Counter("replica_exhausted_total"),
	}
	set := &replicaSet{}
	for _, addr := range addrs {
		set.replicas = append(set.replicas, NewLazyRemoteDatabase(addr, name, category, numDocs, opts.Client))
		set.addrs = append(set.addrs, addr)
		set.keys = append(set.keys, name+"@"+addr)
		set.inflight = append(set.inflight, new(replicaLoad))
		d.breakers.Seed(name+"@"+addr, resilience.HalfOpen)
	}
	if opts.Preferred >= 0 && opts.Preferred < len(addrs) {
		set.preferred = opts.Preferred
	}
	d.set.Store(set)
	return d, nil
}

// Close drains and closes every replica in the background — the path a
// topology swap takes when this whole database leaves the process's
// scope. In-flight calls finish first (they hold the old set), then
// clients close and breakers leave the set.
func (d *ReplicatedDatabase) Close() {
	set := d.set.Load()
	for i := range set.replicas {
		d.drainReplica(set, i)
	}
}

// Name implements SearchableDatabase.
func (d *ReplicatedDatabase) Name() string { return d.name }

// Category returns the category the replicas advertise.
func (d *ReplicatedDatabase) Category() string { return d.category }

// NumDocs returns the document count advertised at dial time.
func (d *ReplicatedDatabase) NumDocs() int { return d.numDocs }

// Replicas returns the current replica count.
func (d *ReplicatedDatabase) Replicas() int { return len(d.set.Load().replicas) }

// ReplicaAddrs returns the current replica addresses, in routing-table
// order.
func (d *ReplicatedDatabase) ReplicaAddrs() []string {
	return append([]string(nil), d.set.Load().addrs...)
}

// Preferred returns this process's current affinity replica index.
func (d *ReplicatedDatabase) Preferred() int { return d.set.Load().preferred }

// ProbeTargets returns one health-probe target per current replica,
// keyed like the per-replica breakers ("name@addr"), for
// resilience.Set.Probe. Metasearcher.Probe calls it at every sweep, so
// the replicas an UpdateReplicas brings in are probed from the next.
func (d *ReplicatedDatabase) ProbeTargets() []resilience.ProbeTarget {
	set := d.set.Load()
	out := make([]resilience.ProbeTarget, len(set.replicas))
	for i, r := range set.replicas {
		out[i] = resilience.ProbeTarget{Name: set.keys[i], Ping: r.Ping}
	}
	return out
}

// UpdateReplicas swaps the replica set to addrs — the live-topology
// reconfiguration path. The swap is atomic for callers: a call in
// flight finishes on the set it loaded at entry; calls entering after
// the swap route over the new set. Per-replica state carries over by
// address: a surviving replica keeps its client (and connection pool),
// its breaker state, and its in-flight count. An added replica gets a
// lazy client (no network I/O here — the swap must not block on a slow
// joiner) and a breaker seeded half-open, so its first call or probe is
// the trial that earns it traffic. Removed replicas are drained: once
// their in-flight count reaches zero (or drainTimeout passes), their
// clients are closed and their breakers leave the set.
//
// Returns the added and removed addresses (the swap audit record).
func (d *ReplicatedDatabase) UpdateReplicas(addrs []string, preferred int) (added, removed []string, err error) {
	if len(addrs) == 0 {
		return nil, nil, fmt.Errorf("repro: replica set of %s cannot become empty (remove the database instead)", d.name)
	}
	d.updateMu.Lock()
	defer d.updateMu.Unlock()

	old := d.set.Load()
	oldAt := make(map[string]int, len(old.addrs))
	for i, addr := range old.addrs {
		oldAt[addr] = i
	}
	next := &replicaSet{}
	if preferred >= 0 && preferred < len(addrs) {
		next.preferred = preferred
	}
	kept := make(map[string]bool, len(addrs))
	for _, addr := range addrs {
		if i, ok := oldAt[addr]; ok {
			kept[addr] = true
			next.replicas = append(next.replicas, old.replicas[i])
			next.inflight = append(next.inflight, old.inflight[i])
		} else {
			added = append(added, addr)
			next.replicas = append(next.replicas, NewLazyRemoteDatabase(addr, d.name, d.category, d.numDocs, d.opts.Client))
			next.inflight = append(next.inflight, new(replicaLoad))
			d.breakers.Seed(d.name+"@"+addr, resilience.HalfOpen)
		}
		next.addrs = append(next.addrs, addr)
		next.keys = append(next.keys, d.name+"@"+addr)
	}
	d.set.Store(next)

	for i, addr := range old.addrs {
		if kept[addr] {
			continue
		}
		removed = append(removed, addr)
		d.drainReplica(old, i)
	}
	return added, removed, nil
}

// drainReplica removes the breaker and closes the client of replica i,
// which has left the live set, once its last in-flight call has left —
// or after drainTimeout on the clock of the breakers it removes (real
// time without breakers), for a call that never returns. Whichever of leave and drainReplica sees the other's
// write releases; once keeps it to one.
func (d *ReplicatedDatabase) drainReplica(set *replicaSet, i int) {
	var once sync.Once
	released := make(chan struct{})
	release := func() {
		once.Do(func() {
			d.breakers.Remove(set.keys[i])
			set.replicas[i].Close()
			close(released)
		})
	}
	load := set.inflight[i]
	load.release.Store(&release)
	if load.n.Load() == 0 {
		release()
		return
	}
	t := d.breakers.Clock().NewTimer(drainTimeout)
	go func() {
		defer t.Stop()
		select {
		case <-t.C():
			release()
		case <-released:
		}
	}()
}

// Ping succeeds while any replica answers its health endpoint — the
// database-level health used by the fan-out's per-database breaker.
func (d *ReplicatedDatabase) Ping(ctx context.Context) error {
	set := d.set.Load()
	var last error
	for _, i := range d.order(set) {
		if last = set.replicas[i].Ping(ctx); last == nil {
			return nil
		}
	}
	return last
}

// order returns set's replica indices in routing order: healthiest
// breaker state first, fewest in-flight calls second (this is what
// steers a hedge away from the replica its primary attempt is
// occupying), then rotation distance from the preferred replica. The
// sort is stable on the rotated order, so equal-health equal-load
// replicas keep affinity.
func (d *ReplicatedDatabase) order(set *replicaSet) []int {
	n := len(set.replicas)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (set.preferred + i) % n
	}
	if n == 1 {
		return idx
	}
	state := make([]resilience.State, n) // ordered healthiest first
	load := make([]int64, n)
	for _, i := range idx {
		load[i] = set.inflight[i].n.Load()
		state[i] = d.breakers.Get(set.keys[i]).State()
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if state[ia] != state[ib] {
			return state[ia] < state[ib]
		}
		return load[ia] < load[ib]
	})
	return idx
}

// call runs fn against replicas in routing order through resilience.Do
// — failover only: each replica's wire client has already retried it —
// and returns the first success, or an error joining every replica's.
// The whole call uses the replica set loaded at entry: a topology swap
// mid-call does not change which replicas this call may try.
func (d *ReplicatedDatabase) call(ctx context.Context, fn func(r *RemoteDatabase) error) error {
	set := d.set.Load()
	order := d.order(set)
	keys := make([]string, len(order))
	for t, i := range order {
		keys[t] = set.keys[i]
	}
	var errs []error // one per replica tried, so far all failed
	_, err := resilience.Do(ctx, resilience.Policy{Breakers: d.breakers}, keys, func(_ context.Context, t, _ int) error {
		i := order[t]
		if len(errs) > 0 {
			d.failovers.Inc()
		}
		set.inflight[i].n.Add(1)
		err := fn(set.replicas[i])
		set.inflight[i].leave()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", keys[t], err))
		}
		return err
	})
	if err == nil || ctx.Err() != nil {
		return err // answered, or the call is over (deadline, hang-up, a hedge that lost its race)
	}
	d.exhausted.Inc()
	if errors.Is(err, resilience.ErrShortCircuited) {
		return fmt.Errorf("repro: every replica of %s is short-circuited", d.name)
	}
	return fmt.Errorf("repro: every replica of %s failed: %w", d.name, errors.Join(errs...))
}

// QueryContext implements ContextSearchableDatabase with replica
// failover.
func (d *ReplicatedDatabase) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	var matches int
	var ids []int
	err := d.call(ctx, func(r *RemoteDatabase) error {
		var err error
		matches, ids, err = r.QueryContext(ctx, terms, limit)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	return matches, ids, nil
}

// FetchContext implements ContextSearchableDatabase with replica
// failover.
func (d *ReplicatedDatabase) FetchContext(ctx context.Context, id int) ([]string, error) {
	var terms []string
	err := d.call(ctx, func(r *RemoteDatabase) error {
		var err error
		terms, err = r.FetchContext(ctx, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	return terms, nil
}

// Query implements SearchableDatabase (the infallible compatibility
// shape): a failed call reports zero matches.
func (d *ReplicatedDatabase) Query(terms []string, limit int) (int, []int) {
	matches, ids, err := d.QueryContext(context.Background(), terms, limit)
	if err != nil {
		return 0, nil
	}
	return matches, ids
}

// Fetch implements SearchableDatabase: a failed call reports an empty
// document.
func (d *ReplicatedDatabase) Fetch(id int) []string {
	terms, err := d.FetchContext(context.Background(), id)
	if err != nil {
		return nil
	}
	return terms
}
