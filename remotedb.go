package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/wire"
)

// RemoteDatabaseOptions configures the wire client behind a
// RemoteDatabase: the per-attempt timeout, the clock its retries back
// off on, the in-client document cache, the transport, the retry budget
// (share Metasearcher.RetryBudget across every remote database in the
// process) and the registry for the wire_* series. The retry policy is
// resilience.Do's at fixed constants (DESIGN §9.4). The zero value is
// usable.
type RemoteDatabaseOptions = wire.ClientOptions

// RemoteDatabase is a SearchableDatabase served by a dbnode process over
// the wire protocol. It implements ContextSearchableDatabase, so the
// pipeline cancels its in-flight calls with the build or search context
// and treats its failures as transient unavailability. Safe for
// concurrent use.
type RemoteDatabase struct {
	client   *wire.Client
	name     string
	category string
	numDocs  int

	// Lazily dialed handles (NewLazyRemoteDatabase) adopt their identity
	// from the caller and verify it against the node on first contact.
	verifyMu sync.Mutex
	verified bool
}

var _ ContextSearchableDatabase = (*RemoteDatabase)(nil)

// DialRemoteDatabase connects to the node at addr ("host:port" or a
// full http:// base URL), fetches its description, and verifies the
// protocol version. The node must be reachable at dial time; afterwards
// the database degrades gracefully (failed calls are retried by the
// client and, if still failing, treated by the pipeline like a missing
// database).
func DialRemoteDatabase(ctx context.Context, addr string, opts RemoteDatabaseOptions) (*RemoteDatabase, error) {
	client := wire.NewClient(addr, opts)
	info, err := client.Info(ctx)
	if err != nil {
		return nil, fmt.Errorf("repro: dialing remote database at %s: %w", addr, err)
	}
	if info.Protocol != wire.Version {
		return nil, fmt.Errorf("repro: remote database at %s speaks protocol %d, want %d",
			addr, info.Protocol, wire.Version)
	}
	if info.Name == "" {
		return nil, fmt.Errorf("repro: remote database at %s reports no name", addr)
	}
	return &RemoteDatabase{
		client:   client,
		name:     info.Name,
		category: info.Category,
		numDocs:  info.NumDocs,
		verified: true,
	}, nil
}

// NewLazyRemoteDatabase builds a handle to the node at addr without
// touching the network: the identity (name, category, document count)
// is adopted from the caller — for a replica swapped into an existing
// replica set, that is the set's identity — and verified against the
// node's /v1/info on first contact. A swap must not block on a replica
// that is still warming up; the handle is ready immediately and the
// node earns traffic when it starts answering.
func NewLazyRemoteDatabase(addr, name, category string, numDocs int, opts RemoteDatabaseOptions) *RemoteDatabase {
	return &RemoteDatabase{
		client:   wire.NewClient(addr, opts),
		name:     name,
		category: category,
		numDocs:  numDocs,
	}
}

// ensureVerified performs the one-time identity check a lazy handle
// deferred at construction: the node must speak the expected protocol
// version and carry the adopted name. Until it passes, every call fails
// — a replica claiming a different database's name must never serve a
// query attributed to this one.
func (d *RemoteDatabase) ensureVerified(ctx context.Context) error {
	d.verifyMu.Lock()
	defer d.verifyMu.Unlock()
	if d.verified {
		return nil
	}
	info, err := d.client.Info(ctx)
	if err != nil {
		return err
	}
	if info.Protocol != wire.Version {
		return fmt.Errorf("repro: remote database at %s speaks protocol %d, want %d",
			d.client.BaseURL(), info.Protocol, wire.Version)
	}
	if info.Name != d.name {
		return fmt.Errorf("repro: remote database at %s is %q, want replica of %q",
			d.client.BaseURL(), info.Name, d.name)
	}
	d.verified = true
	return nil
}

// Close releases the handle's transport resources. Calls in flight are
// unaffected (the wire client is stateless per call); Close exists so
// a replica drained out of the topology does not pin idle keep-alive
// connections until their idle timeout.
func (d *RemoteDatabase) Close() {
	d.client.Close()
}

// Name implements SearchableDatabase.
func (d *RemoteDatabase) Name() string { return d.name }

// Category returns the category the node advertises for its corpus
// ("" when the node has none configured); callers may pass it to
// AddDatabase as the known classification.
func (d *RemoteDatabase) Category() string { return d.category }

// NumDocs returns the document count the node advertised at dial time.
func (d *RemoteDatabase) NumDocs() int { return d.numDocs }

// BaseURL returns the node's base URL.
func (d *RemoteDatabase) BaseURL() string { return d.client.BaseURL() }

// Ping verifies the node is still reachable and accepting traffic,
// via /v1/health (a single attempt, no retries — health probes measure
// the node as it is now).
func (d *RemoteDatabase) Ping(ctx context.Context) error {
	if err := d.ensureVerified(ctx); err != nil {
		return err
	}
	_, err := d.client.Health(ctx)
	return err
}

// QueryContext implements ContextSearchableDatabase.
func (d *RemoteDatabase) QueryContext(ctx context.Context, terms []string, limit int) (int, []int, error) {
	if err := d.ensureVerified(ctx); err != nil {
		return 0, nil, err
	}
	return d.client.Query(ctx, terms, limit)
}

// FetchContext implements ContextSearchableDatabase.
func (d *RemoteDatabase) FetchContext(ctx context.Context, id int) ([]string, error) {
	if err := d.ensureVerified(ctx); err != nil {
		return nil, err
	}
	return d.client.Doc(ctx, id)
}

// Query implements SearchableDatabase (the infallible compatibility
// shape): a failed remote query reports zero matches.
func (d *RemoteDatabase) Query(terms []string, limit int) (int, []int) {
	matches, ids, err := d.client.Query(context.Background(), terms, limit)
	if err != nil {
		return 0, nil
	}
	return matches, ids
}

// Fetch implements SearchableDatabase: a failed remote fetch reports an
// empty document.
func (d *RemoteDatabase) Fetch(id int) []string {
	terms, err := d.client.Doc(context.Background(), id)
	if err != nil {
		return nil
	}
	return terms
}
