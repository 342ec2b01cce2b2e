// Package replica is how the metasearcher reaches a remote text
// database: a Database is one logical database served by one or more
// dbnode processes over the wire protocol (internal/wire), with
// replica routing, retries, failover, identity checks and drains. The
// root package holds these handles as its live databases and never
// looks inside them.
package replica

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ClientOptions configures the wire client of every replica of a
// Database and the budget its retries are paid from. The zero
// value is usable.
type ClientOptions struct {
	// Timeout bounds each attempt, dial to last body byte (default 5s).
	// It is a context deadline on the wall clock.
	Timeout time.Duration
	// CacheSize is the capacity of each replica's LRU document cache
	// (default 1024; negative disables caching).
	CacheSize int
	// Transport overrides the shared keep-alive transport (tests).
	Transport http.RoundTripper
	// Budget, when non-nil, pays for every retry (a retry it refuses is
	// not made) and takes a deposit per successful call. Share
	// repro.Metasearcher.RetryBudget across the process: the bound is on
	// total retry amplification, not per node. Nil leaves retries
	// unbudgeted.
	Budget *resilience.Budget
}

// Options configures a Database.
type Options struct {
	// Preferred is the index of the replica this process tries first
	// under equal health (a shard's affinity replica from the topology,
	// rotated per owner so R owning shards spread over R replicas).
	// Out of range is treated as 0.
	Preferred int
	// Breakers, when non-nil, tracks one circuit breaker per replica
	// under the key "name@addr" — pass the metasearcher's set
	// (repro.Metasearcher.Breakers) so replica states show on
	// /debug/breakers next to the database-level breakers the fan-out
	// keeps. Nil disables replica breakers (every replica is always
	// eligible).
	Breakers *resilience.Set
	// Metrics receives replica_failover_total and
	// replica_exhausted_total, plus the wire client series of every
	// replica (may be nil).
	Metrics *telemetry.Registry
	// Client configures each replica's wire client and the retry budget.
	Client ClientOptions

	// Clock times the backoff between retries (nil: real time). No
	// production caller sets it; tests pass a fake one.
	Clock clock.Clock
}

// The set's attempt policy is chosen by the one input it can observe,
// its replica count (DESIGN §9.4). A lone replica has nowhere to fail
// over to, so a transient failure is retried soloRetries times after the
// backoff, and a shed after its Retry-After. With siblings, a shed fails
// over at once — another replica is free while this one asks for
// seconds — and a transient failure gets siblingRetries same-replica
// retries before the set fails over.
const (
	soloRetries    = 3
	siblingRetries = 1
)

// drainTimeout bounds how long a removed replica's drain waits for its
// in-flight calls; anything still running afterwards is a straggler on
// a detached breaker, which is harmless.
const drainTimeout = 10 * time.Second

// replica is one dbnode of the set: its wire client, breaker key,
// identity check and in-flight count. Routing views share a surviving
// replica, so all of it carries over a swap.
type replica struct {
	addr   string
	key    string // breaker key, "name@addr"
	client *wire.Client

	// A lazily added replica adopts the set's identity and verifies it
	// against the node on first contact.
	verified atomic.Bool
	verifyMu sync.Mutex

	// inflight counts the attempts running on the replica (its routing
	// load); refs the calls holding a routing view that contains it.
	// Once the replica has left the set, release is what the last of
	// those calls runs as it lets go.
	inflight atomic.Int64
	refs     atomic.Int64
	release  atomic.Pointer[func()]
}

func (r *replica) unref() {
	if r.refs.Add(-1) == 0 {
		if release := r.release.Load(); release != nil {
			(*release)()
		}
	}
}

// verify performs the one-time identity check a lazily added replica
// deferred (checkInfo against the set's name). Until it passes, every
// call to the replica fails: a replica claiming another database's name
// must never serve a query attributed to this one. A verified replica
// takes no lock. A failed check fails, and counts in, the attempt it
// guards.
func (r *replica) verify(ctx context.Context, name string) error {
	if r.verified.Load() {
		return nil
	}
	r.verifyMu.Lock()
	defer r.verifyMu.Unlock()
	if r.verified.Load() {
		return nil
	}
	info, err := r.client.Info(ctx, wire.Attempt{Seq: wire.NextSeq()})
	if err != nil {
		return err
	}
	if err := checkInfo(r.client.BaseURL(), info, name); err != nil {
		return err
	}
	r.verified.Store(true)
	return nil
}

// checkInfo is the identity a node must show: this protocol version
// and a name — want, when set.
func checkInfo(url string, info wire.InfoResponse, want string) error {
	switch {
	case info.Protocol != wire.Version:
		return identityError(fmt.Sprintf("replica: remote database at %s speaks protocol %d, want %d", url, info.Protocol, wire.Version))
	case info.Name == "":
		return identityError(fmt.Sprintf("replica: remote database at %s reports no name", url))
	case want != "" && info.Name != want:
		return identityError(fmt.Sprintf("replica: remote database at %s is %q, want replica of %q — a replica set must serve one database",
			url, info.Name, want))
	}
	return nil
}

// identityError is a node showing the wrong identity. Asking again will
// not change its answer, so the set fails over from it at once.
type identityError string

func (e identityError) Error() string   { return string(e) }
func (e identityError) Transient() bool { return false }

// replicaSet is one immutable routing view of the replicas. Calls hold
// the current set from entry to return (hold), so a concurrent
// UpdateReplicas never changes the ground under an in-flight call: the
// old set's replicas stay alive until every call that held it has
// finished (drain), then the removed ones are closed.
type replicaSet struct {
	preferred int
	replicas  []*replica
}

// hold returns the live set with a reference on each of its replicas,
// reading it again after taking them: a swap that stored a successor in
// between may have drained without seeing them.
func (d *Database) hold() *replicaSet {
	for {
		set := d.set.Load()
		for _, r := range set.replicas {
			r.refs.Add(1)
		}
		if d.set.Load() == set {
			return set
		}
		set.letGo()
	}
}

// letGo drops the references hold took.
func (s *replicaSet) letGo() {
	for _, r := range s.replicas {
		r.unref()
	}
}

// Database is one logical text database served by one or more dbnode
// processes with identical content — the handle to any remote database
// (a lone dbnode is a one-replica set). It implements
// repro.ContextSearchableDatabase over the replica set with
// replica-aware routing:
//
//   - Replicas are tried in health order: breaker state first (closed
//     before half-open before open), in-flight count second, affinity
//     third — so a hedged duplicate of an in-flight call (the search
//     fan-out's hedge calls QueryContext twice) naturally races a
//     *different* replica, and first success wins.
//   - Each call is one resilience.Do over the replicas, the only attempt
//     loop below the fan-out (policy): it retries, fails over, spends the
//     budget, deposits once per success and feeds each replica's breaker;
//     a wire client makes one exchange per attempt. The call errors only
//     when every replica failed.
//   - Each replica is a probe target (ProbeTargets), so an open
//     replica breaker closes as soon as its process recovers.
//   - The replica set is live-reconfigurable (UpdateReplicas): in-flight
//     calls finish on the set they started with, surviving replicas
//     keep their breaker state and in-flight counts, removed replicas
//     are drained and closed, added replicas are dialed lazily with
//     breakers seeded half-open (their first call is the trial).
//
// Safe for concurrent use.
type Database struct {
	name     string
	category string
	numDocs  int

	set  atomic.Pointer[replicaSet]
	opts Options // clients of swap-added replicas; the policy's budget and clock

	updateMu sync.Mutex // serializes UpdateReplicas

	breakers  *resilience.Set
	failovers *telemetry.Counter
	exhausted *telemetry.Counter
}

// newDatabase builds the set over addrs without touching the
// network.
func newDatabase(name, category string, numDocs int, addrs []string, opts Options) *Database {
	d := &Database{
		name:      name,
		category:  category,
		numDocs:   numDocs,
		opts:      opts,
		breakers:  opts.Breakers,
		failovers: opts.Metrics.Counter("replica_failover_total"),
		exhausted: opts.Metrics.Counter("replica_exhausted_total"),
	}
	set := &replicaSet{preferred: preferredIndex(opts.Preferred, len(addrs))}
	for _, addr := range addrs {
		set.replicas = append(set.replicas, d.newReplica(addr))
	}
	d.set.Store(set)
	return d
}

// newReplica builds the handle to the node at addr without touching
// the network.
func (d *Database) newReplica(addr string) *replica {
	c := d.opts.Client
	return &replica{addr: addr, key: d.name + "@" + addr, client: wire.NewClient(addr,
		wire.ClientOptions{Timeout: c.Timeout, CacheSize: c.CacheSize, Transport: c.Transport, Metrics: d.opts.Metrics})}
}

func preferredIndex(preferred, n int) int {
	if preferred >= 0 && preferred < n {
		return preferred
	}
	return 0
}

// Dial dials every replica address ("host:port" or a
// full http:// base URL), fetches each node's description, and verifies
// they speak this protocol version and advertise the same database
// (same name). All replicas must be reachable at dial time; afterwards
// the database stays usable while any one replica is, and a failed call
// is treated by the pipeline like a missing database.
func Dial(ctx context.Context, addrs []string, opts Options) (*Database, error) {
	if len(addrs) == 0 {
		return nil, errors.New("replica: Dial needs at least one replica address")
	}
	d := newDatabase("", "", 0, addrs, opts)
	// Every replica must answer, so each is dialed as a lone replica. The
	// breaker keys hold the name these calls learn: dialing feeds none.
	p := d.policy(1)
	p.Breakers = nil
	for i, r := range d.set.Load().replicas {
		var info wire.InfoResponse
		err := d.do(ctx, p, []*replica{r}, func(ctx context.Context, r *replica, at wire.Attempt) (err error) {
			info, err = r.client.Info(ctx, at)
			return err
		})
		if err == nil {
			err = checkInfo(r.client.BaseURL(), info, d.name)
		}
		if err != nil {
			return nil, fmt.Errorf("replica: dialing replica %d of %d at %s: %w", i+1, len(addrs), r.addr, err)
		}
		if i == 0 {
			d.name, d.category, d.numDocs = info.Name, info.Category, info.NumDocs
		}
		r.key = d.name + "@" + r.addr
		r.verified.Store(true)
	}
	return d, nil
}

// New builds a replica set without touching the
// network: every replica adopts the given identity, verified on first
// contact, with its breaker seeded half-open, so the first call or
// probe to each replica is its trial. This is the handle a topology
// swap attaches to a database that just entered this shard's scope —
// the swap cannot block on dialing nodes that may still be booting.
func New(name, category string, numDocs int, addrs []string, opts Options) (*Database, error) {
	if len(addrs) == 0 {
		return nil, errors.New("replica: New needs at least one replica address")
	}
	if name == "" {
		return nil, errors.New("replica: New needs the database name (lazy handles adopt it)")
	}
	d := newDatabase(name, category, numDocs, addrs, opts)
	for _, r := range d.set.Load().replicas {
		d.breakers.Seed(r.key, resilience.HalfOpen)
	}
	return d, nil
}

// Close drains and closes every replica in the background — the path a
// topology swap takes when this whole database leaves the process's
// scope. In-flight calls finish first (they hold the old set), then
// clients close and breakers leave the set.
func (d *Database) Close() {
	for _, r := range d.set.Load().replicas {
		d.drainReplica(r)
	}
}

// Name implements repro.SearchableDatabase.
func (d *Database) Name() string { return d.name }

// Category returns the category the replicas advertise ("" when the
// nodes have none configured); callers may pass it to
// repro.Metasearcher.AddDatabase as the known classification.
func (d *Database) Category() string { return d.category }

// NumDocs returns the document count advertised at dial time.
func (d *Database) NumDocs() int { return d.numDocs }

// ReplicaAddrs returns the current replica addresses, in routing-table
// order.
func (d *Database) ReplicaAddrs() []string {
	set := d.set.Load()
	addrs := make([]string, len(set.replicas))
	for i, r := range set.replicas {
		addrs[i] = r.addr
	}
	return addrs
}

// ProbeTargets returns one health-probe target per current replica,
// keyed like the per-replica breakers ("name@addr"), for
// resilience.Set.Probe; none without replica breakers, which leave
// nothing for a probe to close. repro.Metasearcher.Probe calls it at
// every sweep, so the replicas an UpdateReplicas brings in are probed
// from the next.
func (d *Database) ProbeTargets() []resilience.ProbeTarget {
	if d.breakers == nil {
		return nil
	}
	var out []resilience.ProbeTarget
	for _, r := range d.set.Load().replicas {
		out = append(out, resilience.ProbeTarget{Name: r.key, Ping: func(ctx context.Context) error { return d.ping(ctx, r) }})
	}
	return out
}

// UpdateReplicas swaps the replica set to addrs — the live-topology
// reconfiguration path. The swap is atomic for callers: a call in
// flight finishes on the set it held at entry; calls entering after
// the swap route over the new set. Per-replica state carries over by
// address: a surviving replica keeps its client (and connection pool),
// its breaker state, and its in-flight count. An added replica gets a
// lazy client (no network I/O here — the swap must not block on a slow
// joiner) and a breaker seeded half-open, so its first call or probe is
// the trial that earns it traffic. Removed replicas are drained: once
// the last call holding them returns (or drainTimeout passes), their
// clients are closed and their breakers leave the set.
func (d *Database) UpdateReplicas(addrs []string, preferred int) error {
	if len(addrs) == 0 {
		return fmt.Errorf("replica: replica set of %s cannot become empty (remove the database instead)", d.name)
	}
	d.updateMu.Lock()
	defer d.updateMu.Unlock()

	old := d.set.Load()
	oldAt := make(map[string]*replica, len(old.replicas))
	for _, r := range old.replicas {
		oldAt[r.addr] = r
	}
	next := &replicaSet{preferred: preferredIndex(preferred, len(addrs))}
	for _, addr := range addrs {
		r := oldAt[addr]
		if r != nil {
			delete(oldAt, addr)
		} else {
			r = d.newReplica(addr)
			d.breakers.Seed(r.key, resilience.HalfOpen)
		}
		next.replicas = append(next.replicas, r)
	}
	d.set.Store(next)

	for _, r := range old.replicas {
		if oldAt[r.addr] != nil {
			d.drainReplica(r)
		}
	}
	return nil
}

// drainReplica removes the breaker and closes the client of r, which
// has left the live set, once the last call holding it has returned —
// or after drainTimeout on the clock of the breakers it removes (real
// time without breakers), for a call that never returns. Whichever of
// unref and drainReplica sees the other's write releases; once keeps it
// to one.
func (d *Database) drainReplica(r *replica) {
	var once sync.Once
	released := make(chan struct{})
	release := func() {
		once.Do(func() {
			d.breakers.Remove(r.key)
			r.client.Close()
			close(released)
		})
	}
	r.release.Store(&release)
	if r.refs.Load() == 0 {
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

// ping verifies r's identity if it is still unverified, then checks it
// is up and accepting traffic via /v1/health (a single attempt — probes
// measure the node as it is now).
func (d *Database) ping(ctx context.Context, r *replica) error {
	if err := r.verify(ctx, d.name); err != nil {
		return err
	}
	_, err := r.client.Health(ctx)
	return err
}

// Ping succeeds while any replica answers its health endpoint — the
// database-level health used by the fan-out's per-database breaker.
func (d *Database) Ping(ctx context.Context) error {
	var last error
	for _, r := range d.order(d.set.Load()) {
		if last = d.ping(ctx, r); last == nil {
			return nil
		}
	}
	return last
}

// order returns set's replicas in routing order: healthiest breaker
// state first, fewest in-flight calls second (this is what steers a
// hedge away from the replica its primary attempt is occupying), then
// rotation distance from the preferred replica. The sort is stable on
// the rotated order, so equal-health equal-load replicas keep affinity.
func (d *Database) order(set *replicaSet) []*replica {
	n := len(set.replicas)
	if n == 1 {
		return []*replica{set.replicas[0]}
	}
	type ranked struct {
		r     *replica
		state resilience.State // ordered healthiest first
		load  int64
	}
	rank := make([]ranked, n)
	for i := range rank {
		r := set.replicas[(set.preferred+i)%n]
		rank[i] = ranked{r, d.breakers.Get(r.key).State(), r.inflight.Load()}
	}
	sort.SliceStable(rank, func(a, b int) bool {
		x, y := rank[a], rank[b]
		return x.state < y.state || x.state == y.state && x.load < y.load
	})
	rs := make([]*replica, n)
	for i, x := range rank {
		rs[i] = x.r
	}
	return rs
}

// policy is the attempt policy of a call over a set of this many
// replicas (see soloRetries).
func (d *Database) policy(replicas int) resilience.Policy {
	p := resilience.Policy{Retries: soloRetries, RetryShed: true, Deposit: true,
		Clock: d.opts.Clock, Breakers: d.breakers, Budget: d.opts.Client.Budget}
	if replicas > 1 {
		p.Retries, p.RetryShed = siblingRetries, false
	}
	return p
}

// do is the set's one attempt loop: resilience.Do over replicas, in
// order, under p. Every attempt of the call carries its one wire
// sequence number, so the nodes see r<seq>.0, r<seq>.1, … across
// retries and failovers; an attempt counts in flight on its replica; and
// a failed call is counted in wire_request_errors_total by the replica
// that made its last attempt.
func (d *Database) do(ctx context.Context, p resilience.Policy, replicas []*replica, fn func(context.Context, *replica, wire.Attempt) error) error {
	keys := make([]string, len(replicas))
	for i, r := range replicas {
		keys[i] = r.key
	}
	seq := wire.NextSeq()
	var last *replica
	_, err := resilience.Do(ctx, p, keys, func(ctx context.Context, t, attempt int) error {
		last = replicas[t]
		last.inflight.Add(1)
		defer last.inflight.Add(-1)
		return fn(ctx, last, wire.Attempt{Seq: seq, N: attempt})
	})
	if err != nil && last != nil {
		last.client.CallFailed()
	}
	return err
}

// call runs fn against the replicas in routing order under the set's
// policy, verifying each replica first, and returns the first success,
// or an error joining each tried replica's last. The whole call uses the
// replica set held at entry: a topology swap mid-call does not change
// which replicas this call may try, nor close them under it.
func (d *Database) call(ctx context.Context, fn func(context.Context, *replica, wire.Attempt) error) error {
	set := d.hold()
	defer set.letGo()
	var (
		prev *replica
		errs []error // one per replica tried, so far all failed
	)
	err := d.do(ctx, d.policy(len(set.replicas)), d.order(set), func(ctx context.Context, r *replica, at wire.Attempt) error {
		if prev != nil && r != prev {
			d.failovers.Inc()
		}
		err := r.verify(ctx, d.name)
		if err == nil {
			err = fn(ctx, r, at)
		}
		if err != nil {
			if r != prev {
				errs = append(errs, nil)
			}
			errs[len(errs)-1] = fmt.Errorf("%s: %w", r.key, err)
		}
		prev = r
		return err
	})
	if err == nil || ctx.Err() != nil {
		return err // answered, or the call is over (deadline, hang-up, a hedge that lost its race)
	}
	d.exhausted.Inc()
	if errors.Is(err, resilience.ErrShortCircuited) {
		return fmt.Errorf("replica: every replica of %s is short-circuited", d.name)
	}
	return fmt.Errorf("replica: every replica of %s failed: %w", d.name, errors.Join(errs...))
}

// QueryContext implements repro.ContextSearchableDatabase with replica
// failover.
func (d *Database) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	var matches int
	var ids []int
	err := d.call(ctx, func(ctx context.Context, r *replica, at wire.Attempt) (err error) {
		matches, ids, err = r.client.Query(ctx, at, terms, limit) // zero values on error
		return err
	})
	return matches, ids, err
}

// FetchContext implements repro.ContextSearchableDatabase with replica
// failover.
func (d *Database) FetchContext(ctx context.Context, id int) ([]string, error) {
	var terms []string
	err := d.call(ctx, func(ctx context.Context, r *replica, at wire.Attempt) (err error) {
		terms, err = r.client.Doc(ctx, at, id) // nil on error
		return err
	})
	return terms, err
}

// Query implements repro.SearchableDatabase (the infallible compatibility
// shape): a failed call reports zero matches.
func (d *Database) Query(terms []string, limit int) (int, []int) {
	matches, ids, _ := d.QueryContext(context.Background(), terms, limit)
	return matches, ids
}

// Fetch implements repro.SearchableDatabase: a failed call reports an empty
// document.
func (d *Database) Fetch(id int) []string {
	terms, _ := d.FetchContext(context.Background(), id)
	return terms
}
