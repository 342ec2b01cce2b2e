#!/bin/sh
# smoke_gateway.sh — end-to-end smoke test of the query-serving
# gateway: build metasearch, run it as a service on an ephemeral port,
# issue the same query twice, and assert the second answer was served
# from the result cache (visible both in the response body and in the
# /metrics counters). Finishes by checking SIGTERM drains cleanly.
set -eu

GO="${GO:-go}"
TMP="$(mktemp -d)"
SRV_PID=""

cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "smoke-gateway: building metasearch..."
"$GO" build -o "$TMP/metasearch" ./cmd/metasearch

"$TMP/metasearch" serve -serve 127.0.0.1:0 -k 3 -perdb 3 >"$TMP/srv.log" 2>&1 &
SRV_PID=$!

# The service logs "query API on http://host:port/v1/search ..." once
# the listener is up (after building and sampling the testbed), and
# prints example query words the testbed answers.
ADDR=""
for _ in $(seq 1 150); do
    ADDR="$(sed -n 's|.*query API on http://||p' "$TMP/srv.log" | head -n 1 | cut -d/ -f1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$TMP/srv.log" >&2; exit 1; }
    sleep 0.2
done
if [ -z "$ADDR" ]; then
    echo "smoke-gateway: service never came up" >&2
    cat "$TMP/srv.log" >&2
    exit 1
fi
echo "smoke-gateway: service up at $ADDR"

WORDS="$(sed -n 's/^example query words: \(.*\) (.*/\1/p' "$TMP/srv.log" | head -n 1)"
if [ -z "$WORDS" ]; then
    echo "smoke-gateway: service printed no example query words" >&2
    cat "$TMP/srv.log" >&2
    exit 1
fi
set -- $WORDS
Q="$1+$2"
echo "smoke-gateway: querying q=$Q"

curl -fsS "http://$ADDR/v1/healthz" >/dev/null

FIRST="$(curl -fsS "http://$ADDR/v1/search?q=$Q")"
case "$FIRST" in
*'"result_hit":true'*)
    echo "smoke-gateway: first query claims a cache hit" >&2
    echo "$FIRST" >&2
    exit 1
    ;;
esac
case "$FIRST" in
*'"results":['*) ;;
*)
    echo "smoke-gateway: first query returned no results" >&2
    echo "$FIRST" >&2
    exit 1
    ;;
esac

SECOND="$(curl -fsS "http://$ADDR/v1/search?q=$Q")"
case "$SECOND" in
*'"result_hit":true'*) ;;
*)
    echo "smoke-gateway: second identical query was not a cache hit" >&2
    echo "$SECOND" >&2
    exit 1
    ;;
esac

HITS="$(curl -fsS "http://$ADDR/metrics" | sed -n 's/^result_cache_hits_total //p')"
case "${HITS:-0}" in
0 | '')
    echo "smoke-gateway: result_cache_hits_total = ${HITS:-missing}, want >= 1" >&2
    exit 1
    ;;
esac
echo "smoke-gateway: cache hit confirmed (result_cache_hits_total=$HITS)"

# Graceful shutdown: SIGTERM must drain and exit, logging the drain.
kill -TERM "$SRV_PID"
for _ in $(seq 1 100); do
    kill -0 "$SRV_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SRV_PID" 2>/dev/null; then
    echo "smoke-gateway: service did not exit after SIGTERM" >&2
    exit 1
fi
SRV_PID=""
if ! grep -q "drained, exiting" "$TMP/srv.log"; then
    echo "smoke-gateway: no drain log after SIGTERM" >&2
    cat "$TMP/srv.log" >&2
    exit 1
fi
echo "smoke-gateway: OK"
