#!/bin/sh
# End-to-end smoke of the experiment service: start leakboundd on a
# temp unix socket, round-trip a run request twice (cold then warm —
# the warm one must be answered from the rendered-response LRU with
# the cold render's exact bytes), then a cold request for a synthetic
# extra, check /stats (exact sim_runs and response_lru_hits
# accounting), then SIGTERM and require a clean drain (exit 0, socket
# removed).  Invoked by CTest as: serve_smoke.sh <leakboundd>
# <leakbound-client>.
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

SOCK=$DIR/leakboundd.sock
"$DAEMON" --socket "$SOCK" --workers 2 --queue-limit 8 \
    --cache-dir "$DIR/cache" >"$DIR/daemon.log" 2>&1 &
PID=$!

# Wait for the readiness line, then for the socket to answer.
up=0
i=0
while [ $i -lt 100 ]; do
    if "$CLIENT" --socket "$SOCK" --ping >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ $up -ne 1 ]; then
    echo "serve_smoke: daemon never became ready" >&2
    cat "$DIR/daemon.log" >&2
    exit 1
fi

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
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=
if [ $status -ne 0 ]; then
    echo "serve_smoke: daemon exited $status on SIGTERM" >&2
    cat "$DIR/daemon.log" >&2
    exit 1
fi
if [ -e "$SOCK" ]; then
    echo "serve_smoke: socket left behind after drain" >&2
    exit 1
fi

# ---- Fleet phase: 2-shard supervisor over the same cache ----------
# Start a supervised fleet, route a run through it (warm — the shard
# loads the result the single daemon just simulated, proving the
# cache is shared), SIGKILL one shard, confirm the supervisor respawns
# it and the fleet still answers byte-identically, then drain clean.
FSOCK=$DIR/fleet.sock
"$DAEMON" --socket "$FSOCK" --shards 2 --workers 1 \
    --restart-backoff-ms 50 --restart-backoff-cap-ms 400 \
    --health-interval-ms 200 \
    --cache-dir "$DIR/cache" >"$DIR/fleet.log" 2>&1 &
PID=$!

up=0
i=0
while [ $i -lt 100 ]; do
    if "$CLIENT" --socket "$FSOCK" --ping >/dev/null 2>&1; then
        up=1
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ $up -ne 1 ]; then
    echo "serve_smoke: fleet never became ready" >&2
    cat "$DIR/fleet.log" >&2
    exit 1
fi

"$CLIENT" --socket "$FSOCK" --shards 2 --benchmarks gzip \
    --instructions 50000 >"$DIR/fleet1.json"
grep -q '"from_cache": true' "$DIR/fleet1.json" || {
    echo "serve_smoke: fleet shard did not share the artifact cache" >&2
    cat "$DIR/fleet1.json" >&2
    exit 1
}

# SIGKILL one shard (the supervisor's children are the shards) and
# wait for the respawn: two live shard children again, one of them new.
SHARD=$(pgrep -P "$PID" | head -n 1)
if [ -z "$SHARD" ]; then
    echo "serve_smoke: could not find a shard child to kill" >&2
    cat "$DIR/fleet.log" >&2
    exit 1
fi
kill -9 "$SHARD"
recovered=0
i=0
while [ $i -lt 100 ]; do
    live=$(pgrep -P "$PID" | grep -cv "^$SHARD\$" || true)
    if [ "$live" -ge 2 ]; then
        recovered=1
        break
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ $recovered -ne 1 ]; then
    echo "serve_smoke: supervisor never respawned the killed shard" >&2
    cat "$DIR/fleet.log" >&2
    exit 1
fi

# The revived fleet answers the same request with the same bytes, and
# the supervisor's aggregated stats admit to the restart.
"$CLIENT" --socket "$FSOCK" --shards 2 --benchmarks gzip \
    --instructions 50000 >"$DIR/fleet2.json"
if ! cmp -s "$DIR/fleet1.json" "$DIR/fleet2.json"; then
    echo "serve_smoke: fleet response changed across a shard" \
         "restart" >&2
    exit 1
fi
"$CLIENT" --socket "$FSOCK" --stats >"$DIR/fleet_stats.json"
grep -q '"restarts_total": 1' "$DIR/fleet_stats.json" || {
    echo "serve_smoke: fleet stats did not count the restart" >&2
    cat "$DIR/fleet_stats.json" >&2
    exit 1
}

# Graceful fleet drain: SIGTERM fans out, supervisor exits 0, control
# socket gone.
kill -TERM "$PID"
status=0
wait "$PID" || status=$?
PID=
if [ $status -ne 0 ]; then
    echo "serve_smoke: fleet exited $status on SIGTERM" >&2
    cat "$DIR/fleet.log" >&2
    exit 1
fi
if [ -e "$FSOCK" ]; then
    echo "serve_smoke: control socket left behind after fleet drain" >&2
    exit 1
fi

echo "serve_smoke: ok"
