#!/bin/sh
# End-to-end smoke of the experiment service: start leakboundd on a
# temp unix socket, round-trip a run request twice (cold then warm —
# the warm one must be answered from the rendered-response LRU with
# the cold render's exact bytes), then a cold request for a synthetic
# extra, check /stats (exact sim_runs and response_lru_hits
# accounting), then SIGTERM and require a clean drain (exit 0, socket
# removed).  Then the same again with two event loops: six concurrent
# clients must get the single-loop daemon's exact bytes, and SIGTERM
# must drain it cleanly too.  Invoked by CTest as: serve_smoke.sh
# <leakboundd> <leakbound-client>.
#
# The daemon is launched directly (never inside a compound command) so
# $! is the daemon's own PID and the TERM we send exercises *its*
# drain path, not a wrapper shell's.
set -eu

DAEMON=$1
CLIENT=$2

DIR=$(mktemp -d)
PID=
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

# Wait until the daemon at socket $1 (log $2) answers a ping.
wait_ready() {
    i=0
    while [ $i -lt 100 ]; do
        if "$CLIENT" --socket "$1" --ping >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$PID" 2>/dev/null; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    echo "serve_smoke: daemon never became ready" >&2
    cat "$2" >&2
    exit 1
}

# SIGTERM the daemon at socket $1 (log $2): it must exit 0 and take
# its socket with it.
drain() {
    kill -TERM "$PID"
    status=0
    wait "$PID" || status=$?
    PID=
    if [ $status -ne 0 ]; then
        echo "serve_smoke: daemon exited $status on SIGTERM" >&2
        cat "$2" >&2
        exit 1
    fi
    if [ -e "$1" ]; then
        echo "serve_smoke: socket left behind after drain" >&2
        exit 1
    fi
}

SOCK=$DIR/leakboundd.sock
"$DAEMON" --socket "$SOCK" --workers 1 --queue-limit 8 \
    --cache-dir "$DIR/cache" >"$DIR/daemon.log" 2>&1 &
PID=$!
wait_ready "$SOCK" "$DIR/daemon.log"

# Cold, then warm: the second response is answered straight from the
# rendered-response LRU, so it must be byte-for-byte the cold
# response — same digests, and no simulation or cache load behind it.
"$CLIENT" --socket "$SOCK" --benchmarks gzip --instructions 50000 \
    >"$DIR/run1.json"
"$CLIENT" --socket "$SOCK" --benchmarks gzip --instructions 50000 \
    >"$DIR/run2.json"
fnv1=$(grep -o '"result_fnv": "[0-9a-f]*"' "$DIR/run1.json")
fnv2=$(grep -o '"result_fnv": "[0-9a-f]*"' "$DIR/run2.json")
if [ -z "$fnv1" ] || [ "$fnv1" != "$fnv2" ]; then
    echo "serve_smoke: warm result differs from cold" >&2
    echo "cold: $fnv1" >&2
    echo "warm: $fnv2" >&2
    exit 1
fi
if ! cmp -s "$DIR/run1.json" "$DIR/run2.json"; then
    echo "serve_smoke: LRU-hit response is not byte-identical to the" \
         "cold render" >&2
    exit 1
fi

# A synthetic extra simulates like any paper benchmark: cold, it is
# neither a cache load nor an LRU hit.
"$CLIENT" --socket "$SOCK" --benchmarks stream --instructions 200000 \
    >"$DIR/run3.json"
grep -q '"from_cache": false' "$DIR/run3.json" || {
    echo "serve_smoke: stream request was not simulated cold" >&2
    cat "$DIR/run3.json" >&2
    exit 1
}

"$CLIENT" --socket "$SOCK" --stats >"$DIR/stats.json"
grep -q '"requests_served": 3' "$DIR/stats.json" || {
    echo "serve_smoke: stats did not count all three runs" >&2
    cat "$DIR/stats.json" >&2
    exit 1
}
grep -q '"sim_runs": 2' "$DIR/stats.json" || {
    echo "serve_smoke: stats did not count both cold simulations" >&2
    cat "$DIR/stats.json" >&2
    exit 1
}
# Exactly one LRU hit (the warm gzip rerun).
grep -q '"response_lru_hits": 1' "$DIR/stats.json" || {
    echo "serve_smoke: stats did not show exactly one response-LRU" \
         "hit" >&2
    cat "$DIR/stats.json" >&2
    exit 1
}

# Graceful drain: SIGTERM, daemon exits 0, socket gone.
drain "$SOCK" "$DIR/daemon.log"

# ---- Two event loops: six concurrent clients, same bytes ----------
# A fresh cache, so both requests simulate cold again, as they did
# above: each response must be the single-loop daemon's exact bytes.
LSOCK=$DIR/loops.sock
"$DAEMON" --socket "$LSOCK" --workers 2 --queue-limit 8 \
    --cache-dir "$DIR/cache-loops" >"$DIR/loops.log" 2>&1 &
PID=$!
wait_ready "$LSOCK" "$DIR/loops.log"

CLIENTS=
for k in 1 2 3; do
    "$CLIENT" --socket "$LSOCK" --benchmarks gzip --instructions 50000 \
        >"$DIR/loops_gzip$k.json" &
    CLIENTS="$CLIENTS $!"
    "$CLIENT" --socket "$LSOCK" --benchmarks stream --instructions 200000 \
        >"$DIR/loops_stream$k.json" &
    CLIENTS="$CLIENTS $!"
done
for client in $CLIENTS; do
    wait "$client" || {
        echo "serve_smoke: a client of the two-loop daemon failed" >&2
        cat "$DIR/loops.log" >&2
        exit 1
    }
done
for k in 1 2 3; do
    if ! cmp -s "$DIR/run1.json" "$DIR/loops_gzip$k.json" ||
        ! cmp -s "$DIR/run3.json" "$DIR/loops_stream$k.json"; then
        echo "serve_smoke: two-loop response differs from the" \
             "single-loop daemon's" >&2
        exit 1
    fi
done
"$CLIENT" --socket "$LSOCK" --stats >"$DIR/loops_stats.json"
grep -q '"requests_served": 6' "$DIR/loops_stats.json" || {
    echo "serve_smoke: two-loop stats did not count all six runs" >&2
    cat "$DIR/loops_stats.json" >&2
    exit 1
}

drain "$LSOCK" "$DIR/loops.log"

echo "serve_smoke: ok"
