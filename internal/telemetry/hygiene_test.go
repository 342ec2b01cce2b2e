package telemetry_test

// Fleet-wide metric hygiene: every series any serving component
// registers must carry help text, use snake_case, and keep one type and
// one owner per name. The test boots the real components (metasearcher
// pipeline, gateway, router, wire server/client, topology watcher,
// cluster collector) the way the commands do and walks their
// registries, so adding a sloppy metric anywhere fails here, not in a
// dashboard.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/gateway"
	"repro/internal/obscollector"
	"repro/internal/resilience"
	"repro/internal/router"
	"repro/internal/shardmap"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite DESIGN.md §8's metric tables from this build's registries")

// fleetRegistry is one process kind's registry, booted the way its
// command boots it.
type fleetRegistry struct {
	name, title string
	reg         *telemetry.Registry
}

func bootFleet(t *testing.T) []fleetRegistry {
	t.Helper()
	// A standalone metasearcher's registry: pipeline, cache, breaker,
	// replica, and (via gateway.New over it) gateway series.
	m := repro.New(repro.Options{
		SampleSize:    8,
		SeedLexicon:   []string{"alpha", "beta"},
		KeepStopwords: true,
		NoStemming:    true,
		Cache:         repro.CacheConfig{Size: 8},
	})
	gateway.New(m, gateway.Options{Metrics: m.Metrics()})
	wire.NewServer(repro.NewLocalDatabaseFromTerms("db", [][]string{{"alpha"}}),
		wire.ServerOptions{Metrics: m.Metrics()})
	wire.NewClient("127.0.0.1:0", wire.ClientOptions{Metrics: m.Metrics()})

	// Every command that runs a topology watcher (shard, route,
	// collect) runs it on its own registry.
	topo := &shardmap.Topology{
		Version:   shardmap.TopologyVersion,
		Shards:    []shardmap.Shard{{ID: "shard-00", Addr: "127.0.0.1:0"}},
		Databases: []shardmap.Database{{Name: "db", Replicas: []string{"127.0.0.1:0"}}},
	}
	topoFile := filepath.Join(t.TempDir(), "topology.json")
	if err := topo.SaveFile(topoFile); err != nil {
		t.Fatal(err)
	}
	watch := func(reg *telemetry.Registry) {
		if _, err := shardmap.NewWatcher(topoFile, shardmap.WatcherOptions{Metrics: reg}); err != nil {
			t.Fatal(err)
		}
	}
	watch(m.Metrics())

	// The cluster router's registry.
	routerReg := telemetry.NewRegistry()
	watch(routerReg)
	if _, err := router.New(topo, router.Options{
		Metrics:  routerReg,
		Breakers: resilience.NewSet(resilience.BreakerOptions{}, routerReg),
	}); err != nil {
		t.Fatal(err)
	}
	gateway.New(m, gateway.Options{Metrics: routerReg})

	// The collector's own registry.
	collectorReg := telemetry.NewRegistry()
	watch(collectorReg)
	if _, err := obscollector.New(nil, obscollector.Options{Metrics: collectorReg}); err != nil {
		t.Fatal(err)
	}
	return []fleetRegistry{
		{"metasearcher", "A metasearcher (`query`, `serve`, `shard`) — pipeline, caches, breakers and their health probes, gateway and wire client; the `topology_*` rows are `shard`'s only, and the `wire_server_*` rows are what a dbnode records into its own registry", m.Metrics()},
		{"router", "The router (`route`)", routerReg},
		{"collector", "The collector (`collect`)", collectorReg},
	}
}

func TestFleetMetricHygiene(t *testing.T) {
	for _, reg := range bootFleet(t) {
		snap := reg.reg.Snapshot()
		if snap.Series() == 0 {
			t.Fatalf("%s registry is empty; the test is not exercising real components", reg.name)
		}
		for _, problem := range snap.Hygiene() {
			t.Errorf("%s registry: %s", reg.name, problem)
		}
	}
}

// metricCatalogue renders DESIGN.md §8's tables: per process kind, every
// series its registry holds at boot with its kind and declared help text.
func metricCatalogue(t *testing.T) string {
	var b strings.Builder
	for _, reg := range bootFleet(t) {
		snap := reg.reg.Snapshot()
		kinds := map[string]string{}
		for name := range snap.Counters {
			kinds[name] = "counter"
		}
		for name := range snap.Gauges {
			kinds[name] = "gauge"
		}
		for name := range snap.Histograms {
			kinds[name] = "histogram"
		}
		names := make([]string, 0, len(kinds))
		for name := range kinds {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "\n%s:\n\n| Series | Kind | Help |\n|---|---|---|\n", reg.title)
		for _, name := range names {
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, kinds[name], snap.Help[name])
		}
	}
	return b.String()
}

// TestMetricCatalogueCurrent fails when the tables between DESIGN.md
// §8's markers are not what the registries generate; `make docs` (this
// test with -update) rewrites them.
func TestMetricCatalogueCurrent(t *testing.T) {
	const begin, end = "<!-- BEGIN GENERATED METRICS (make docs) -->\n", "\n<!-- END GENERATED METRICS -->"
	path := filepath.Join("..", "..", "DESIGN.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("%s has no generated-metrics markers", path)
	}
	want := doc[:i+len(begin)] + metricCatalogue(t) + doc[j:]
	if *update {
		if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		doc = want
	}
	if doc != want {
		t.Errorf("%s §8 metric tables are stale: run `make docs`", path)
	}
}

// TestHygieneCatchesViolations proves the checker can actually fail:
// a registry with a help-less, CamelCased, type-colliding or
// doubly-owned series must report every problem.
func TestHygieneCatchesViolations(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("no_help_total")
	reg.DeclareCounter("BadName", "Declared but CamelCase.")
	reg.DeclareCounter("twice", "Registered as two types.")
	reg.Gauge("twice")
	reg.DeclareCounter("trailing_", "Trailing underscore.")
	reg.DeclareCounter("double__under", "Double underscore.")
	reg.DeclareGauge("two_owners", "One owner's help text.")
	reg.DeclareGauge("two_owners", "Another owner's help text.")
	reg.DeclareGauge("shared_owner", "Declared twice by one owner.")
	reg.DeclareGauge("shared_owner", "Declared twice by one owner.")

	problems := reg.Snapshot().Hygiene()
	for _, p := range problems {
		if strings.Contains(p, "shared_owner") {
			t.Errorf("hygiene flagged a repeat declaration with the same help text: %s", p)
		}
	}
	for _, want := range []string{"no_help_total", "BadName", "twice", "trailing_", "double__under", "two_owners"} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("hygiene missed the %q violation; got %v", want, problems)
		}
	}
}
