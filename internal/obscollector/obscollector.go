// Package obscollector is the cluster observability plane: one process
// that periodically scrapes every member of a sharded metasearcher
// fleet (router, shards, dbnode replicas) and serves a single debug
// surface over all of them.
//
// Three facilities, one scrape step (ScrapeOnce, which the owning
// process runs every scrape interval with clock.Every):
//
//   - Aggregated metrics. Every member's /metrics?format=json snapshot
//     is kept per instance and rolled up cluster-wide — counters
//     summed, equal-bounds histograms merged (exemplars kept from the
//     merged tail), gauges reported as min/max/sum — and served in
//     Prometheus text (instance/role/shard labels) and JSON at
//     /debug/cluster/metrics.
//   - Distributed trace assembly. Members export their recent spans
//     (telemetry.RingCapture via /debug/export/spans) and audit
//     records (/debug/export/queries); the collector stitches events
//     from all processes by trace ID into one cross-process span tree
//     at /debug/cluster/trace/{id}, built by telemetry.BuildSpanTree,
//     the builder in-process readers use too. Histogram exemplars in the
//     aggregated snapshot carry the trace IDs of the slowest recent
//     requests, so a tail-latency spike links directly to a full
//     fan-out trace.
//   - Continuous profiling. An opt-in sampler walks the fleet on a
//     rotation capturing pprof CPU and heap profiles into a bounded
//     on-disk set, indexed at /debug/cluster/profiles.
//
// The collector is read-only and stateless across restarts: everything
// it serves is reconstructed from member scrapes, so it can be killed
// and restarted freely (profiles on disk survive; in-memory state is
// re-scraped within one interval).
package obscollector

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
)

// Target is one fleet member the collector scrapes. BaseURL is the
// debug listener root ("http://host:port"); the collector appends the
// well-known paths (/metrics, /debug/export/spans, ...).
type Target struct {
	Identity telemetry.Identity
	BaseURL  string
}

// TargetsFromTopology derives the scrape set from the cluster's shared
// topology file: every shard (role "shard") and every dbnode replica of
// every database (role "dbnode", deduplicated — a replica serving under
// replication appears once). routerAddr, when non-empty, adds the
// router (role "router"). Addresses may be bare host:port.
func TargetsFromTopology(topo *shardmap.Topology, routerAddr string) []Target {
	var out []Target
	if routerAddr != "" {
		out = append(out, Target{
			Identity: telemetry.Identity{Instance: routerAddr, Role: "router"},
			BaseURL:  baseURL(routerAddr),
		})
	}
	for _, s := range topo.Shards {
		out = append(out, Target{
			Identity: telemetry.Identity{Instance: s.Addr, Role: "shard", Shard: s.ID},
			BaseURL:  baseURL(s.Addr),
		})
	}
	seen := make(map[string]bool)
	for _, db := range topo.Databases {
		for _, addr := range db.Replicas {
			if seen[addr] {
				continue
			}
			seen[addr] = true
			out = append(out, Target{
				Identity: telemetry.Identity{Instance: addr, Role: "dbnode"},
				BaseURL:  baseURL(addr),
			})
		}
	}
	return out
}

func baseURL(addr string) string {
	if len(addr) >= 7 && (addr[:7] == "http://" || (len(addr) >= 8 && addr[:8] == "https://")) {
		return addr
	}
	return "http://" + addr
}

// scrapeTimeout bounds one member's whole scrape.
const scrapeTimeout = 3 * time.Second

// Options configures a Collector.
type Options struct {
	// Metrics receives the collector's own collector_* series (may be
	// nil).
	Metrics *telemetry.Registry
	// Logger, when non-nil, logs scrape failures.
	Logger *slog.Logger
	// ProfileDir, when set, turns the continuous-profiling sampler on
	// and is where its captures land (off by default: profiling costs
	// the profiled process CPU).
	ProfileDir string
}

// InstanceState is the latest scrape of one fleet member.
type InstanceState struct {
	Identity  telemetry.Identity `json:"identity"`
	ScrapedAt time.Time          `json:"scraped_at"`
	// Err is the scrape failure, "" on success. A failed scrape keeps
	// the previous Metrics/Spans (stale beats absent for debugging a
	// member that just died).
	Err     string             `json:"err,omitempty"`
	Metrics telemetry.Snapshot `json:"metrics"`
	// Spans are the member's recent trace events (oldest first);
	// SpansDropped how many its ring overwrote before this scrape.
	Spans        []telemetry.ExportedEvent `json:"-"`
	SpansDropped int64                     `json:"spans_dropped,omitempty"`
	// Queries are the member's recent audit records (newest first;
	// empty for members without an audit ring, e.g. dbnodes).
	Queries []*audit.QueryRecord `json:"-"`
}

// Collector owns the scrape set and the assembled state. Its two steps,
// ScrapeOnce and ProfileOnce, are scheduled by the owner (clock.Every).
type Collector struct {
	opts Options

	mu         sync.RWMutex
	targets    []Target
	generation int64                     // topology generation the targets derive from
	state      map[string]*InstanceState // key: Identity.Instance

	scrapes    *telemetry.Counter
	scrapeErrs *telemetry.Counter
	sweepLat   *telemetry.Histogram

	profiler *profiler
}

// New builds a Collector over the targets.
func New(targets []Target, opts Options) (*Collector, error) {
	c := &Collector{
		targets:    targets,
		opts:       opts,
		state:      make(map[string]*InstanceState, len(targets)),
		scrapes:    opts.Metrics.DeclareCounter("collector_scrapes_total", "Member scrapes attempted by the cluster collector."),
		scrapeErrs: opts.Metrics.DeclareCounter("collector_scrape_errors_total", "Member scrapes that failed (member kept its stale state)."),
		sweepLat:   opts.Metrics.DeclareHistogram("collector_scrape_latency", "Wall time of one full fleet sweep, seconds.", nil),
	}
	if opts.ProfileDir != "" {
		p, err := newProfiler(opts)
		if err != nil {
			return nil, err
		}
		c.profiler = p
	}
	return c, nil
}

// Targets returns the scrape set.
func (c *Collector) Targets() []Target {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Target, len(c.targets))
	copy(out, c.targets)
	return out
}

// Generation returns the topology generation the current scrape set was
// derived from (0 until SetTargets is first called with one).
func (c *Collector) Generation() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.generation
}

// SetTargets swaps the scrape set — the collector's half of a topology
// reconfiguration. State of instances no longer targeted is dropped
// (their last scrapes describe members that left the fleet); surviving
// instances keep theirs, so a swap never blanks the debug surface. The
// profiling rotation, which reads the scrape set at each capture,
// follows it. generation records which topology generation produced the
// set.
func (c *Collector) SetTargets(targets []Target, generation int64) {
	next := make([]Target, len(targets))
	copy(next, targets)
	keep := make(map[string]bool, len(next))
	for _, t := range next {
		keep[t.Identity.Instance] = true
	}
	c.mu.Lock()
	c.targets = next
	c.generation = generation
	for inst := range c.state {
		if !keep[inst] {
			delete(c.state, inst)
		}
	}
	c.mu.Unlock()
}

// ProfileOnce is one continuous-profiling step: it captures a CPU and a
// heap profile of the next member in rotation, then prunes retention.
// A no-op unless Options.ProfileDir turned the sampler on.
func (c *Collector) ProfileOnce(ctx context.Context) {
	if c.profiler != nil {
		c.profiler.captureNext(ctx, c.Targets())
	}
}

// ScrapeOnce sweeps every target in parallel and installs the results.
// The target set is read once at entry: a concurrent SetTargets applies
// from the next sweep.
func (c *Collector) ScrapeOnce(ctx context.Context) {
	start := time.Now()
	targets := c.Targets()
	states := make([]*InstanceState, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			states[i] = c.scrapeTarget(ctx, t)
		}(i, t)
	}
	wg.Wait()
	c.mu.Lock()
	current := make(map[string]bool, len(c.targets))
	for _, t := range c.targets {
		current[t.Identity.Instance] = true
	}
	for _, st := range states {
		// A SetTargets mid-sweep may have dropped this instance; a
		// stale scrape must not resurrect it.
		if !current[st.Identity.Instance] {
			continue
		}
		if st.Err != "" {
			// Keep the previous successful payload under the new error
			// so operators still see the member's last known state.
			if prev, ok := c.state[st.Identity.Instance]; ok {
				st.Metrics = prev.Metrics
				st.Spans = prev.Spans
				st.SpansDropped = prev.SpansDropped
				st.Queries = prev.Queries
			}
		}
		c.state[st.Identity.Instance] = st
	}
	c.mu.Unlock()
	c.sweepLat.ObserveSince(start)
}

// scrapeTarget fetches one member's metrics, spans, and audit records.
// Spans and audit are best-effort (a member without the export
// endpoints still contributes metrics); metrics failure fails the
// scrape.
func (c *Collector) scrapeTarget(ctx context.Context, t Target) *InstanceState {
	c.scrapes.Inc()
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	st := &InstanceState{Identity: t.Identity, ScrapedAt: time.Now()}

	var snap telemetry.Snapshot
	if err := c.getJSON(ctx, t.BaseURL+"/metrics?format=json", &snap); err != nil {
		st.Err = err.Error()
		c.scrapeErrs.Inc()
		if c.opts.Logger != nil {
			c.opts.Logger.Warn("scrape failed", "instance", t.Identity.Instance, "err", err)
		}
		return st
	}
	st.Metrics = snap

	var spans telemetry.SpanExport
	if err := c.getJSON(ctx, t.BaseURL+"/debug/export/spans", &spans); err == nil {
		if spans.Version == telemetry.SpanExportVersion {
			st.Spans = spans.Events
			st.SpansDropped = spans.Dropped
		} else if c.opts.Logger != nil {
			c.opts.Logger.Warn("span export version mismatch",
				"instance", t.Identity.Instance, "got", spans.Version, "want", telemetry.SpanExportVersion)
		}
	}

	var queries audit.Export
	if err := c.getJSON(ctx, t.BaseURL+"/debug/export/queries", &queries); err == nil {
		if queries.Version == audit.ExportVersion {
			st.Queries = queries.Records
		}
	}
	return st
}

func (c *Collector) getJSON(ctx context.Context, url string, dst interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(dst)
}

// States returns the latest scrape of every member, keyed by instance.
func (c *Collector) States() map[string]*InstanceState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]*InstanceState, len(c.state))
	for k, v := range c.state {
		out[k] = v
	}
	return out
}
