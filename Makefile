GO ?= go

.PHONY: all vet build test race bench docs results results-small count benchcompat-check smoke smoke-remote smoke-gateway smoke-cluster check clean

all: vet build test

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The telemetry registry and tracer are hammered concurrently by the
# build pipeline; run the whole tree under the race detector.
race:
	$(GO) test -race ./...

# One iteration of every micro-benchmark: a bit-rot check, not a
# measurement (performance numbers come from `go run ./benchmark`).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Regenerate the three copies kept by code: the per-mode flag tables
# (docs/flags.md, from cmd/metasearch's flag sets), DESIGN.md §8's metric
# tables (from the registries' declared series) and EXPERIMENTS.md's
# GENERATED blocks (from docs/results-default.txt). `go test` fails on a
# stale copy of any of them.
docs:
	cd cmd/metasearch && $(GO) test -run TestFlagDocsCurrent -update .
	cd internal/telemetry && $(GO) test -run TestMetricCatalogueCurrent -update .
	cd cmd/experiments && $(GO) test -run TestExperimentsDocCurrent -update .

# Regenerate the paper's tables and figures at full scale (about ten
# minutes; kept out of `make test` and CI). EXPERIMENTS.md quotes this
# file; run `make docs` after it.
results:
	$(GO) run ./cmd/experiments -all > docs/results-default.txt

# The same tables and figures over the miniature testbeds (about twenty
# seconds; the output is deterministic). CI diffs a fresh run against
# docs/results-small.txt, so a change to any paper number shows in review.
results-small:
	$(GO) run ./cmd/experiments -all -scale small -v=false -telemetry=false > docs/results-small.txt

# The size figures every ROADMAP re-anchor quotes: non-test Go lines
# outside benchmark/ (benchcompat.go shims not counted; their lines are
# printed on their own), the root package's share of them (the paper's
# pipeline), the observability packages' share and the number of metric
# kinds, metasearch flags per mode, the time.Sleep
# calls left in tests, the files outside internal/resilience that still
# make attempt-policy calls of their own (resilience.Do should be the
# only caller of the budget and breaker methods on the query path), the
# periodic loops that are not clock.Every (it should be the only one),
# the resilience.Do call sites (one attempt loop per layer: fan-out,
# replica set, router), the lines of benchcompat.go shims (DESIGN §3),
# the search methods on *Metasearcher and *Router (one each: Search),
# the root package's exported funcs, methods and types and its exported
# Metasearcher methods (shims excluded from all three; ROADMAP item 6's
# targets), the fields of the store's per-database record (ROADMAP item
# 5's columnar store replaces it), and the exported fields of the
# option structs — the eight that held the fan-out's
# timing knobs, totalled, then router.Options.
OPTION_STRUCTS = repro.go:Options repro.go:ResilienceOptions \
	internal/resilience/breaker.go:BreakerOptions internal/resilience/budget.go:BudgetOptions \
	internal/wire/client.go:ClientOptions internal/gateway/gateway.go:Options \
	internal/evtstream/evtstream.go:Options internal/shardmap/watcher.go:WatcherOptions
count:
	@printf 'non-test Go lines outside benchmark/ and benchcompat.go: '
	@find . -name '*.go' ! -name '*_test.go' ! -name benchcompat.go ! -path './benchmark/*' | xargs cat | wc -l
	@printf 'of which the root package (repro): '
	@ls *.go | grep -v -e '_test\.go$$' -e '^benchcompat\.go$$' | xargs cat | wc -l
	@printf 'of which internal/telemetry + internal/audit + internal/obscollector: '
	@find internal/telemetry internal/audit internal/obscollector -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@printf 'metric kinds (name-to-metric maps in telemetry.Registry): '
	@grep -c '^	[a-z]* *map\[string\]\*' internal/telemetry/registry.go
	@sed -n 's/^## \(metasearch .*\)/\1/p; s/^\([0-9]* distinct flags\)/metasearch: \1/p' docs/flags.md
	@printf 'time.Sleep calls in _test.go files outside benchmark/: '
	@find . -name '*_test.go' ! -path './benchmark/*' | xargs grep -c 'time\.Sleep(' | awk -F: '{n += $$2} END {print n}'
	@printf 'non-test Go files outside internal/resilience and benchmark/ calling TrySpend, Allow, RecordCall, RecordNeutral or RecordSuccess: '
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/resilience/*' | xargs grep -l -E '\.(TrySpend|Allow|RecordCall|RecordNeutral|RecordSuccess)\(' | wc -l
	@printf 'periodic loops outside internal/clock (non-test Go outside benchmark/ matching NewTicker( or stopOnce): '
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/clock/*' | xargs grep -E 'NewTicker\(|stopOnce' | wc -l
	@printf 'resilience.Do( call sites in non-test Go outside internal/resilience and benchmark/: '
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './internal/resilience/*' -exec grep -h 'resilience\.Do(' {} + | wc -l
	@printf 'benchcompat.go lines (old spellings benchmark/ compiles against): '
	@find . -name benchcompat.go ! -path './benchmark/*' -exec cat {} + | wc -l
	@printf 'search methods on *Metasearcher and *Router outside benchcompat.go: '
	@find . -name '*.go' ! -name '*_test.go' ! -name benchcompat.go ! -path './benchmark/*' -exec grep -hE '^func \([a-z]+ \*(Metasearcher|Router)\) Search[A-Za-z]*\([^)]' {} + | wc -l
	@printf 'exported root funcs, methods and types outside benchcompat.go: '
	@ls *.go | grep -v -e '_test\.go$$' -e '^benchcompat\.go$$' | xargs grep -hE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]' | wc -l
	@printf 'exported Metasearcher methods outside benchcompat.go: '
	@ls *.go | grep -v -e '_test\.go$$' -e '^benchcompat\.go$$' | xargs grep -hE '^func \([a-z]+ \*Metasearcher\) [A-Z]' | wc -l
	@printf "fields of the store's per-database record (registeredDB): "
	@awk '/^type registeredDB struct/ {on=1; next} on && /^}/ {print n+0; exit} \
		on && /^\t[a-z]/ {sub(/^\t/, ""); sub(/ .*/, ""); n += split($$0, _, ",")}' store.go
	@total=0; for s in $(OPTION_STRUCTS) internal/router/router.go:Options; do \
		n=$$(awk -v t="$${s#*:}" '$$0 ~ "^type " t " struct" {on=1; next} on && /^}/ {print n+0; exit} \
			on && /^\t[A-Z]/ {sub(/^\t/, ""); sub(/ +[^ ,]+( +`.*`)?( *\/\/.*)?$$/, ""); n += split($$0, _, ",")}' $${s%%:*}); \
		echo "$$s: $$n exported fields"; \
		case "$$s" in internal/router/*) ;; *) total=$$((total + n));; esac; \
	done; echo "the eight timing-knob option structs: $$total exported fields"

# The benchcompat rule's guarantee (DESIGN §3): deleting every
# benchcompat.go breaks only benchmark/. Vets every other package, tests
# included, in a copy of the tree with the shims deleted.
benchcompat-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	tar --exclude=./.git -cf - . | tar -xf - -C "$$tmp" && \
	find "$$tmp" -name benchcompat.go ! -path "$$tmp/benchmark/*" -delete && \
	cd "$$tmp" && $(GO) vet $$($(GO) list ./... | grep -v -E '^repro/benchmark(/|$$)') && \
	echo 'benchcompat-check: every package but benchmark/ vets without the shims'

smoke: vet build
	$(GO) test -race ./internal/telemetry/ .

# End-to-end wire-protocol smoke: build dbnode, serve the sample corpus
# on an ephemeral port, run one remote query, tear down.
smoke-remote:
	GO="$(GO)" sh scripts/smoke_remote.sh

# End-to-end gateway smoke: run metasearch as a query service, issue
# the same query twice, assert the second is a result-cache hit, and
# check SIGTERM drains cleanly.
smoke-gateway:
	GO="$(GO)" sh scripts/smoke_gateway.sh

# End-to-end cluster smoke: replicated dbnodes behind two
# consistent-hash shards behind the scatter-gather router; queries keep
# succeeding while every preferred replica is killed mid-stream.
smoke-cluster:
	GO="$(GO)" sh scripts/smoke_cluster.sh

# The full pre-merge gate.
check: vet build test race benchcompat-check smoke-remote smoke-gateway smoke-cluster

clean:
	$(GO) clean ./...
