GO ?= go

.PHONY: all vet build test race bench smoke smoke-remote smoke-gateway smoke-cluster check clean

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
check: vet build test race smoke-remote smoke-gateway smoke-cluster

clean:
	$(GO) clean ./...
