#!/bin/sh
# smoke_cluster.sh — end-to-end smoke test of the sharded cluster:
# boot 2 dbnode replicas for each of three testbed databases, build the
# summary store once over the wire, serve it from two consistent-hash
# shards behind the scatter-gather router, query through the router,
# then kill every database's preferred replica mid-stream and assert
# the cluster keeps answering (replica failover, not an outage).
#
# Usage: scripts/smoke_cluster.sh
#
# A -collect observability collector is always booted against the full
# topology (all nine processes): the smoke asserts the fleet metrics
# rollup and one assembled cross-process trace. With $COLLECTOR_OUT
# set, the aggregated cluster snapshot is saved there (a CI artifact).
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
PIDS=""

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "smoke-cluster: building dbnode and metasearch..."
"$GO" build -o "$TMP/dbnode" ./cmd/dbnode
"$GO" build -o "$TMP/metasearch" ./cmd/metasearch

# Three databases keep the bounded-load ring honest: with cap
# ceil(1.25 * 3 / 2) = 2 neither shard can own everything, so both
# shards end up serving real traffic. The Heart database is included
# because the shards print Heart-topic example query words.
HEART="$("$TMP/dbnode" -list -scale small -seed 1 | awk '$NF == "Heart" {print $1; exit}')"
[ -n "$HEART" ] || { echo "smoke-cluster: no Heart database in the testbed" >&2; exit 1; }
OTHERS="$("$TMP/dbnode" -list -scale small -seed 1 | awk -v h="$HEART" '$1 != h {print $1}' | head -n 2)"
DBS="$HEART $OTHERS"
echo "smoke-cluster: databases:" $DBS

slug() { echo "$1" | tr -c 'a-zA-Z0-9' '_'; }

# start_node <db> <replica#>: boot one dbnode replica; sets ADDR and
# NODE_PID_<replica>_<db-slug> in the calling shell.
start_node() {
    log="$TMP/node-$(slug "$1")$2.log"
    "$TMP/dbnode" -testbed "$1" -scale small -seed 1 >"$log" 2>&1 &
    PIDS="$PIDS $!"
    eval "NODE_PID_$2_$(slug "$1")=$!"
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's|.*on http://||p' "$log" | head -n 1)"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "smoke-cluster: dbnode $1 replica $2 never came up" >&2
        cat "$log" >&2
        exit 1
    fi
}

# Every database gets two identical replicas; replica 0 is every
# shard's preferred copy (replication 1 => owner rank 0), so killing
# the 0s later forces failover on every call.
REPLICA0=""
for db in $DBS; do
    start_node "$db" 0
    a0="$ADDR"
    start_node "$db" 1
    a1="$ADDR"
    eval "ADDRS_$(slug "$db")='$a0 $a1'"
    REPLICA0="$REPLICA0${REPLICA0:+,}$a0"
    echo "smoke-cluster: $db replicas at $a0 $a1"
done

# Build the summary store once, over the wire, from the replica-0
# nodes; every shard will load this same file (full store, scoped
# fan-out).
echo "smoke-cluster: sampling the nodes and saving summaries..."
"$TMP/metasearch" query -remote "$REPLICA0" -save "$TMP/state.json" heart >"$TMP/build.log" 2>&1 || {
    echo "smoke-cluster: summary build failed" >&2
    cat "$TMP/build.log" >&2
    exit 1
}

# write_topology <shard00-addr> <shard01-addr>: the shared cluster view.
# Shard addrs are placeholders until the shard gateways are up — the
# ring hashes only shard IDs, so the assignment is already final.
write_topology() {
    {
        printf '{\n  "version": 1,\n  "shards": [\n'
        printf '    {"id": "shard-00", "addr": "%s"},\n' "$1"
        printf '    {"id": "shard-01", "addr": "%s"}\n  ],\n' "$2"
        printf '  "databases": [\n'
        first=1
        for db in $DBS; do
            [ "$first" -eq 1 ] || printf ',\n'
            first=0
            eval "addrs=\$ADDRS_$(slug "$db")"
            reps=""
            for a in $addrs; do
                reps="$reps${reps:+, }\"$a\""
            done
            printf '    {"name": "%s", "replicas": [%s]}' "$db" "$reps"
        done
        printf '\n  ]\n}\n'
    } >"$TMP/topo.json"
}
write_topology "127.0.0.1:1" "127.0.0.1:1"

# start_shard <shard-id>: boot one shard metasearcher; sets ADDR.
start_shard() {
    log="$TMP/$1.log"
    "$TMP/metasearch" shard -shard-id "$1" -topology "$TMP/topo.json" -load "$TMP/state.json" \
        -topology-poll 200ms -cache-size 0 -serve 127.0.0.1:0 >"$log" 2>&1 &
    PIDS="$PIDS $!"
    ADDR=""
    for _ in $(seq 1 150); do
        ADDR="$(sed -n 's|.*query API on http://||p' "$log" | head -n 1 | cut -d/ -f1)"
        [ -n "$ADDR" ] && break
        sleep 0.2
    done
    if [ -z "$ADDR" ]; then
        echo "smoke-cluster: $1 never came up" >&2
        cat "$log" >&2
        exit 1
    fi
}

start_shard shard-00
SHARD0="$ADDR"
start_shard shard-01
SHARD1="$ADDR"
echo "smoke-cluster: shards up at $SHARD0 $SHARD1"

# The shard's health endpoint must report its shard id (satellite of
# the cluster PR: operators tell shards apart from /v1/healthz alone).
HEALTH="$(curl -fsS "http://$SHARD0/v1/healthz")"
case "$HEALTH" in
*'"shard_id":"shard-00"'*) ;;
*)
    echo "smoke-cluster: shard healthz does not report its shard id: $HEALTH" >&2
    exit 1
    ;;
esac

# Rewrite the topology with the live shard addrs and boot the router.
write_topology "$SHARD0" "$SHARD1"
"$TMP/metasearch" route -topology "$TMP/topo.json" -probe-interval 250ms \
    -topology-poll 200ms -serve 127.0.0.1:0 >"$TMP/router.log" 2>&1 &
PIDS="$PIDS $!"
ROUTER=""
for _ in $(seq 1 150); do
    ROUTER="$(sed -n 's|.*query API on http://||p' "$TMP/router.log" | head -n 1 | cut -d/ -f1)"
    [ -n "$ROUTER" ] && break
    sleep 0.2
done
if [ -z "$ROUTER" ]; then
    echo "smoke-cluster: router never came up" >&2
    cat "$TMP/router.log" >&2
    exit 1
fi
echo "smoke-cluster: router up at $ROUTER"

# The router builds no testbed; the shards (same -scale/-seed as the
# dbnodes) print the example query words.
WORDS="$(sed -n 's/^example query words: \(.*\) (.*/\1/p' "$TMP/shard-00.log" | head -n 1)"
if [ -z "$WORDS" ]; then
    echo "smoke-cluster: shard-00 printed no example query words" >&2
    cat "$TMP/shard-00.log" >&2
    exit 1
fi
if grep -q "building Web testbed" "$TMP/router.log"; then
    echo "smoke-cluster: the router built a testbed it has no use for" >&2
    exit 1
fi
set -- $WORDS
Q="$1+$2"
echo "smoke-cluster: querying q=$Q through the router"

assert_results() {
    resp="$(curl -fsS "http://$ROUTER/v1/search?q=$Q")"
    case "$resp" in
    *'"results":[{'*) ;;
    *)
        echo "smoke-cluster: $1: router returned no results" >&2
        echo "$resp" >&2
        exit 1
        ;;
    esac
}

assert_results "all replicas up"
echo "smoke-cluster: query answered with all replicas up"

# The router's health endpoint must report every shard's breaker state
# (satellite of the observability PR: one healthz call answers for the
# whole fleet behind the router).
RHEALTH="$(curl -fsS "http://$ROUTER/v1/healthz")"
case "$RHEALTH" in
*'"shards":'*'"breaker":"closed"'*) ;;
*)
    echo "smoke-cluster: router healthz does not report per-shard breaker state: $RHEALTH" >&2
    exit 1
    ;;
esac

# Boot the observability collector against the same topology: it
# scrapes all nine processes (router, 2 shards, 6 dbnode replicas) and
# serves the fleet rollup and stitched traces.
"$TMP/metasearch" collect -topology "$TMP/topo.json" -collect-router "$ROUTER" \
    -scrape-interval 300ms -serve 127.0.0.1:0 >"$TMP/collector.log" 2>&1 &
PIDS="$PIDS $!"
COLLECTOR=""
for _ in $(seq 1 150); do
    COLLECTOR="$(sed -n 's|.*observability on http://||p' "$TMP/collector.log" | head -n 1 | cut -d/ -f1)"
    [ -n "$COLLECTOR" ] && break
    sleep 0.2
done
if [ -z "$COLLECTOR" ]; then
    echo "smoke-cluster: collector never came up" >&2
    cat "$TMP/collector.log" >&2
    exit 1
fi
echo "smoke-cluster: collector up at $COLLECTOR"

# A traced query through the router: its X-Trace-Id must show up —
# within a scrape interval or two — as an assembled cross-process trace
# with spans from at least the router, a shard, and a dbnode.
TID="$(curl -fsS -D - -o /dev/null "http://$ROUTER/v1/search?q=$Q" | tr -d '\r' | sed -n 's/^[Xx]-[Tt]race-[Ii]d: //p' | head -n 1)"
if [ -z "$TID" ]; then
    echo "smoke-cluster: router search response carries no X-Trace-Id" >&2
    exit 1
fi
NPROCS=0
for _ in $(seq 1 50); do
    TRACE="$(curl -fsS "http://$COLLECTOR/debug/cluster/trace/$TID" 2>/dev/null | tr -d '\n ')" || TRACE=""
    case "$TRACE" in
    *'"roots":'*)
        NPROCS="$(printf '%s' "$TRACE" | sed -n 's/.*"processes":\[\([^]]*\)\].*/\1/p' | tr ',' '\n' | grep -c '"' || true)"
        [ "$NPROCS" -ge 3 ] && break
        ;;
    esac
    sleep 0.2
done
if [ "$NPROCS" -lt 3 ]; then
    echo "smoke-cluster: trace $TID never assembled across >=3 processes (got $NPROCS)" >&2
    cat "$TMP/collector.log" >&2
    exit 1
fi
echo "smoke-cluster: trace $TID assembled across $NPROCS processes"

# The aggregated metrics rollup must carry fleet-wide series in the
# Prometheus rendering (unlabeled rollup + per-instance labeled lines).
PROM="$(curl -fsS "http://$COLLECTOR/debug/cluster/metrics")"
for series in 'gateway_requests_total ' 'wire_requests_total ' 'gateway_requests_total{instance='; do
    case "$PROM" in
    *"$series"*) ;;
    *)
        echo "smoke-cluster: cluster metrics rollup is missing $series" >&2
        printf '%s\n' "$PROM" | head -n 40 >&2
        exit 1
        ;;
    esac
done
echo "smoke-cluster: fleet metrics rollup serving"

if [ -n "${COLLECTOR_OUT:-}" ]; then
    curl -fsS "http://$COLLECTOR/debug/cluster/metrics?format=json" >"$COLLECTOR_OUT"
    echo "smoke-cluster: cluster snapshot saved to $COLLECTOR_OUT"
fi

# Streaming delivery through the router: one curl -N against
# /v1/search/stream must carry at least the selection, node_result, and
# final frame types, and the final frame's ranking must be exactly the
# blocking endpoint's answer.
echo "smoke-cluster: streaming query through the router..."
STREAM="$(curl -fsSN "http://$ROUTER/v1/search/stream?q=$Q")"
for ev in 'event: selection' 'event: node_result' 'event: final'; do
    case "$STREAM" in
    *"$ev"*) ;;
    *)
        echo "smoke-cluster: stream is missing \"$ev\"" >&2
        printf '%s\n' "$STREAM" | head -n 20 >&2
        exit 1
        ;;
    esac
done
FINAL_DATA="$(printf '%s\n' "$STREAM" | sed -n '/^event: final$/{n;n;s/^data: //p;}')"
BLOCKING="$(curl -fsS "http://$ROUTER/v1/search?q=$Q")"
# trace_id and elapsed differ per request; the ranking and selection
# payloads must not (shards run cache-off, so both requests recompute).
pick() { printf '%s' "$2" | sed -n 's/.*"'"$1"'":\(\[[^]]*\]\).*/\1/p'; }
for field in results selections; do
    sv="$(pick "$field" "$FINAL_DATA")"
    bv="$(pick "$field" "$BLOCKING")"
    if [ -z "$sv" ] || [ "$sv" != "$bv" ]; then
        echo "smoke-cluster: streamed final $field differ from blocking answer" >&2
        echo "stream:   $sv" >&2
        echo "blocking: $bv" >&2
        exit 1
    fi
done
echo "smoke-cluster: stream carried selection/node_result/final, final ranking == blocking"

# Kill every database's replica 0 — the preferred copy on every shard —
# while the cluster keeps serving. The next queries must fail over to
# replica 1 without a single failed request.
for db in $DBS; do
    eval "pid=\$NODE_PID_0_$(slug "$db")"
    kill "$pid" 2>/dev/null || true
done
sleep 0.3

assert_results "preferred replicas down"
assert_results "preferred replicas down, requery"
echo "smoke-cluster: queries still answered with every preferred replica dead"

# The shards must have recorded real failovers (and no exhausted replica
# sets: one live copy per database remained throughout).
FAILOVERS=0
for shard in "$SHARD0" "$SHARD1"; do
    n="$(curl -fsS "http://$shard/metrics" | sed -n 's/^replica_failover_total //p')"
    FAILOVERS=$((FAILOVERS + ${n:-0}))
    x="$(curl -fsS "http://$shard/metrics" | sed -n 's/^replica_exhausted_total //p')"
    if [ "${x:-0}" -ne 0 ]; then
        echo "smoke-cluster: replica_exhausted_total=$x on $shard, want 0" >&2
        exit 1
    fi
done
if [ "$FAILOVERS" -eq 0 ]; then
    echo "smoke-cluster: no replica failover recorded although every preferred replica is dead" >&2
    exit 1
fi
echo "smoke-cluster: $FAILOVERS replica failovers, 0 exhausted replica sets"

# Live topology reconfiguration under load: boot a replacement replica
# for the Heart database, then rewrite the topology mid-stream — every
# database drops its dead replica 0 and Heart gains the replacement as
# its new preferred copy. The shard and router watchers must apply the
# swap with zero failed queries, and /v1/healthz must report the bumped
# topology generation on both planes.
gen_of() {
    curl -fsS "http://$1/v1/healthz" | sed -n 's/.*"topology":{"generation":\([0-9]*\).*/\1/p'
}
RGEN="$(gen_of "$ROUTER")"
SGEN="$(gen_of "$SHARD0")"
if [ -z "$RGEN" ] || [ -z "$SGEN" ]; then
    echo "smoke-cluster: healthz reports no topology generation (router='$RGEN' shard='$SGEN')" >&2
    exit 1
fi

start_node "$HEART" 2
NEWADDR="$ADDR"
echo "smoke-cluster: replacement replica for $HEART at $NEWADDR"

# Continuous query load across the rewrite; any failure fails the smoke.
: >"$TMP/reconfig.fail"
(
    while [ ! -f "$TMP/reconfig.stop" ]; do
        curl -fsS "http://$ROUTER/v1/search?q=$Q" >/dev/null 2>&1 || echo x >>"$TMP/reconfig.fail"
        sleep 0.05
    done
) &
LOAD_PID=$!
PIDS="$PIDS $LOAD_PID"
sleep 0.3

for db in $DBS; do
    eval "addrs=\$ADDRS_$(slug "$db")"
    set -- $addrs
    if [ "$db" = "$HEART" ]; then
        eval "ADDRS_$(slug "$db")='$NEWADDR $2'"
    else
        eval "ADDRS_$(slug "$db")='$2'"
    fi
done
write_topology "$SHARD0" "$SHARD1"

NEWRGEN=""
NEWSGEN=""
for _ in $(seq 1 100); do
    NEWRGEN="$(gen_of "$ROUTER")"
    NEWSGEN="$(gen_of "$SHARD0")"
    [ "${NEWRGEN:-0}" -gt "$RGEN" ] && [ "${NEWSGEN:-0}" -gt "$SGEN" ] && break
    sleep 0.2
done
if [ "${NEWRGEN:-0}" -le "$RGEN" ] || [ "${NEWSGEN:-0}" -le "$SGEN" ]; then
    echo "smoke-cluster: topology generation never bumped (router $RGEN->$NEWRGEN, shard $SGEN->$NEWSGEN)" >&2
    cat "$TMP/router.log" >&2
    exit 1
fi

# Let the load run on the new topology for a moment, then stop it.
sleep 0.5
touch "$TMP/reconfig.stop"
wait "$LOAD_PID" 2>/dev/null || true
if [ -s "$TMP/reconfig.fail" ]; then
    echo "smoke-cluster: $(wc -l <"$TMP/reconfig.fail") queries failed during the topology swap, want 0" >&2
    cat "$TMP/router.log" >&2
    exit 1
fi
assert_results "after topology swap"
echo "smoke-cluster: topology swap applied under load (router gen $RGEN->$NEWRGEN, shard gen $SGEN->$NEWSGEN), zero failed queries"

# The router's swap audit trail records the reconfiguration. With
# $SWAP_OUT set, the trail is saved there (a CI artifact alongside the
# COLLECTOR file).
TRAIL="$(curl -fsS "http://$ROUTER/debug/topology")"
case "$TRAIL" in
*'"swaps":'*) ;;
*)
    echo "smoke-cluster: router /debug/topology has no swap audit trail: $TRAIL" >&2
    exit 1
    ;;
esac
if [ -n "${SWAP_OUT:-}" ]; then
    printf '%s\n' "$TRAIL" >"$SWAP_OUT"
    echo "smoke-cluster: swap audit trail saved to $SWAP_OUT"
fi

echo "smoke-cluster: OK"
