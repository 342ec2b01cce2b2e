// Command metasearch is an end-to-end demonstration metasearcher over a
// synthetic Web testbed: query-based sampling, shrinkage-based
// summaries, adaptive selection, search and merge. It runs in one of
// five process modes, one subcommand each, and every mode owns exactly
// the flags it reads — a flag of another mode is a usage error:
//
//	metasearch query   [flags] [query ...]   answer the arguments, or stdin line by line
//	metasearch serve   [flags]               the query API (/v1/search, /v1/search/stream, /v1/healthz)
//	metasearch shard   [flags]               one topology shard of a cluster, same API
//	metasearch route   [flags]               the cluster's scatter-gather router, same API
//	metasearch collect [flags]               the cluster observability collector (/debug/cluster/*)
//
// `metasearch <mode> -h` prints the mode's flags; docs/flags.md holds the
// same tables, generated from the flag sets (`make docs`). README.md has
// the runbooks, DESIGN.md §9 the serving path and §8 the metric
// catalogue. Performance is measured by the repo benchmark
// (`go run ./benchmark`), not by this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/clock"
	"repro/internal/selection"
	"repro/internal/shardmap"
)

// mode is one process mode: its subcommand word, the flags it owns and
// the function that runs it.
type mode struct {
	name     string
	args     string // positional arguments, as the usage line ends; "" = none accepted
	synopsis string
	register func(f *flags)
	run      func(f *flags, args []string) error
}

var modes = []mode{
	{
		name: "query", args: " [query ...]",
		synopsis: "build (or -load) the summaries in-process, then answer the query arguments, or stdin line by line",
		register: func(f *flags) {
			f.metasearcherFlags()
			f.sourceFlags()
			f.fs.BoolVar(&f.explain, "explain", false, "print each query's selection audit record (scores, shrinkage verdicts, per-node costs)")
			f.fs.StringVar(&f.listen, "listen", "", "serve /metrics, /debug/* and /debug/pprof on this address while the process runs (e.g. :8080)")
		},
		run: runQuery,
	},
	{
		name:     "serve",
		synopsis: "run as a query service: the gateway API plus the debug endpoints, until SIGINT/SIGTERM drains it",
		register: func(f *flags) {
			f.metasearcherFlags()
			f.sourceFlags()
			f.gatewayFlags()
			f.fs.DurationVar(&f.refreshEvery, "refresh-interval", 0, "re-probe every database's live contents at this interval and rebuild drifted summaries in place (0 = off)")
			f.fs.Float64Var(&f.driftThresh, "drift-threshold", 0.3, "Jensen-Shannon divergence (nats, max ln 2 ≈ 0.69) between the stored summary and a fresh probe beyond which the summary is rebuilt")
			f.fs.IntVar(&f.refreshDocs, "refresh-docs", 50, "documents per drift probe; small keeps checks cheap, the full -scale sample size is used only for an actual rebuild")
		},
		run: runServe,
	},
	{
		name:     "shard",
		synopsis: "serve one topology shard: load the shared summary store, then attach its slice's replicated dbnodes as the topology's first swap and probe them before listening",
		register: func(f *flags) {
			f.metasearcherFlags()
			f.require("load", "shards serve offline-built summaries, they do not sample")
			f.gatewayFlags()
			f.topologyFlags()
			f.fs.StringVar(&f.shardID, "shard-id", "", "the shard of -topology this process serves")
			f.require("shard-id", "it names this process's slice of the topology")
		},
		run: runShard,
	},
	{
		name:     "route",
		synopsis: "run the cluster's scatter-gather router: fan /v1/search out to every shard and merge the rankings (owns no summaries)",
		register: func(f *flags) {
			f.fanoutFlags()
			f.gatewayFlags()
			f.topologyFlags()
		},
		run: runRoute,
	},
	{
		name:     "collect",
		synopsis: "run the cluster observability collector: scrape every member of the topology and serve /debug/cluster/*",
		register: func(f *flags) {
			f.verboseFlag()
			f.listenerFlags()
			f.topologyFlags()
			f.fs.StringVar(&f.collectRouter, "collect-router", "", "the router's address, added to the scrape set with role \"router\"")
			f.fs.DurationVar(&f.scrapeEvery, "scrape-interval", 5*time.Second, "how often every fleet member is scraped")
			f.fs.StringVar(&f.profileDir, "profile-dir", "", "enable continuous profiling, storing pprof captures in this directory")
			f.fs.DurationVar(&f.profileEvery, "profile-interval", 30*time.Second, "pause between profile captures (each tick profiles one member, rotating through the fleet)")
			f.fs.IntVar(&f.profileCPU, "profile-cpu-seconds", 5, "length of each CPU profile capture")
			f.fs.IntVar(&f.profileKeep, "profile-keep", 32, "retained profiles per kind (cpu, heap); oldest deleted first")
		},
		run: runCollect,
	},
}

// flags holds one mode's flag set and the values parsed into it. Each
// flag is defined in exactly one place — a mode's register function or
// one of the group methods below that modes share — so a field whose
// flag the mode did not register keeps its zero value.
type flags struct {
	fs       *flag.FlagSet
	required []requiredFlag

	scale, scorer, listen, remote, auditFile, saveFile, loadFile string
	serveAddr, debugAddr, topologyFile, shardID                  string
	collectRouter, profileDir                                    string

	k, perDB, cacheSize, maxInfl, refreshDocs, profileCPU, profileKeep int
	seed                                                               int64
	driftThresh                                                        float64
	verbose, explain                                                   bool

	deadline, hedgeAfter, probeEvery, cacheTTL, drainFor time.Duration
	refreshEvery, topoPoll, scrapeEvery, profileEvery    time.Duration
}

type requiredFlag struct{ name, why string }

// flagSet builds the mode's flag set. Parse errors and -h print to out.
func (m *mode) flagSet(out io.Writer) *flags {
	f := &flags{fs: flag.NewFlagSet("metasearch "+m.name, flag.ContinueOnError)}
	f.fs.SetOutput(out)
	f.fs.Usage = func() {
		fmt.Fprintf(out, "usage: metasearch %s [flags]%s\n\n%s\n\n", m.name, m.args, m.synopsis)
		f.fs.PrintDefaults()
	}
	m.register(f)
	return f
}

// require marks a flag the mode has registered as mandatory.
func (f *flags) require(name, why string) {
	f.required = append(f.required, requiredFlag{name, why})
	f.fs.Lookup(name).Usage += " (required)"
}

// fanoutFlags: how a query fans out — to how many targets, how deep,
// for how long — and how a tripped target is readmitted.
func (f *flags) fanoutFlags() {
	f.fs.IntVar(&f.k, "k", 5, "databases to select per query (the default for API requests that omit k)")
	f.fs.IntVar(&f.perDB, "perdb", 3, "documents to retrieve per selected database (the default for API requests that omit perdb)")
	f.fs.DurationVar(&f.deadline, "deadline", 0, "overall per-query fan-out deadline budget (0 = none); for a query service, also the default per-request deadline")
	f.fs.DurationVar(&f.probeEvery, "probe-interval", 0, "background health-probe interval for tripped nodes or shards (0 = off)")
}

// verboseFlag: the progress log of the metasearcher modes and collect.
func (f *flags) verboseFlag() {
	f.fs.BoolVar(&f.verbose, "v", false, "log progress to stderr")
}

// metasearcherFlags: what every mode that owns a repro.Metasearcher reads.
func (f *flags) metasearcherFlags() {
	f.fs.StringVar(&f.scale, "scale", "small", "testbed scale: small | default")
	f.fs.Int64Var(&f.seed, "seed", 1, "synthetic world seed")
	f.fs.Func("scorer", "selection algorithm: cori | bgloss | lm (default cori)", func(s string) error {
		_, err := selection.ByName(s)
		f.scorer = s
		return err
	})
	f.fanoutFlags()
	f.fs.DurationVar(&f.hedgeAfter, "hedge-after", 0, "hedge a node query after this latency (0 = auto from observed p95, negative = off)")
	f.fs.IntVar(&f.cacheSize, "cache-size", 1024, "entries per query-cache tier; 0 disables the selection and result caches")
	f.fs.DurationVar(&f.cacheTTL, "cache-ttl", 0, "selection-cache TTL (0 = default 10m; the result tier keeps its shorter default)")
	f.fs.StringVar(&f.loadFile, "load", "", "load summaries from this file instead of sampling")
	f.fs.StringVar(&f.auditFile, "audit", "", "append every query's audit record to this file as JSONL")
	f.verboseFlag()
}

// sourceFlags: where a process that builds its own summaries finds the
// databases, and where it leaves the result.
func (f *flags) sourceFlags() {
	f.fs.StringVar(&f.remote, "remote", "", "comma-separated dbnode addresses (host:port,...); metasearch over these remote nodes instead of in-process databases (start them with: dbnode -testbed <name> -scale ... -seed ...); with -load the dialed nodes keep their live handles")
	f.fs.StringVar(&f.saveFile, "save", "", "after building summaries, save them to this file (atomic write + checksum)")
}

// listenerFlags: the address a serving mode binds and how it shuts down.
func (f *flags) listenerFlags() {
	f.fs.StringVar(&f.serveAddr, "serve", "", "listen on this address until SIGINT/SIGTERM")
	f.require("serve", "this mode is its HTTP surface")
	f.fs.DurationVar(&f.drainFor, "drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests to drain")
}

// gatewayFlags: the query API's listener, admission gate and debug
// surface.
func (f *flags) gatewayFlags() {
	f.listenerFlags()
	f.fs.StringVar(&f.debugAddr, "debug-addr", "", "move the debug endpoints (/metrics, /debug/*) to their own listener on this address, keeping the -serve listener API-only")
	f.fs.IntVar(&f.maxInfl, "max-inflight", 0, "shed query-API requests past this many in flight with 429 + Retry-After (0 = unlimited)")
}

// topologyFlags: the cluster view a cluster mode follows.
func (f *flags) topologyFlags() {
	f.fs.StringVar(&f.topologyFile, "topology", "", "cluster topology file (shardmap JSON)")
	f.require("topology", "a cluster mode's members come from the cluster topology")
	f.fs.DurationVar(&f.topoPoll, "topology-poll", 2*time.Second, "poll -topology for version bumps and apply them live — replica sets swap under traffic, the router's ring follows, the collector rescrapes (0 disables live reconfiguration)")
}

// pollTopology runs the watcher's Poll every -topology-poll and returns
// the schedule's stop.
func pollTopology(w *shardmap.Watcher, f *flags) (stop func()) {
	return clock.Every(nil, f.topoPoll, func(context.Context) { w.Poll() })
}

// parse parses args into the mode's flags and checks what the flags
// alone decide: every required flag set, no positional argument a mode
// does not take. Like the flag package's own errors, a violation is
// printed with the mode's usage.
func (m *mode) parse(f *flags, args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	var err error
	for _, r := range f.required {
		if err == nil && f.fs.Lookup(r.name).Value.String() == "" {
			err = fmt.Errorf("-%s is required: %s", r.name, r.why)
		}
	}
	if err == nil && m.args == "" && f.fs.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q: %s takes flags only", f.fs.Arg(0), m.name)
	}
	if err != nil {
		fmt.Fprintf(f.fs.Output(), "metasearch %s: %v\n", m.name, err)
		f.fs.Usage()
	}
	return err
}

func usage(out io.Writer) {
	fmt.Fprint(out, "usage: metasearch <mode> [flags] (metasearch <mode> -h lists a mode's flags)\n\n")
	for _, m := range modes {
		fmt.Fprintf(out, "  %-8s %s\n", m.name, m.synopsis)
	}
}

// run is main without the process exit: 0 on success (or -h), 2 on a
// usage error — decided before anything is built — and 1 when the mode
// itself fails.
func run(args []string, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for i := range modes {
		m := &modes[i]
		if m.name != args[0] {
			continue
		}
		f := m.flagSet(stderr)
		if err := m.parse(f, args[1:]); errors.Is(err, flag.ErrHelp) {
			return 0
		} else if err != nil {
			return 2
		}
		if err := m.run(f, f.fs.Args()); err != nil {
			log.Print(err)
			return 1
		}
		return 0
	}
	usage(stderr)
	if args[0] == "-h" || args[0] == "-help" || args[0] == "--help" {
		return 0
	}
	fmt.Fprintf(stderr, "metasearch: unknown mode %q\n", args[0])
	return 2
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("metasearch: ")
	os.Exit(run(os.Args[1:], os.Stderr))
}
