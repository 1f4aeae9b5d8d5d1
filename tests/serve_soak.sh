#!/bin/sh
# Sustained soak of the scale-out serving tier (ctest label: soak).
#
# Topology: metaopt-gateway fronting two metaopt-serve workers over TCP,
# both watching the same live bundle path for hot reload. Two phases,
# each a loadgen_serve soak that enforces its own gates (zero errors, at
# least 50 completions at 5/s or more, and one reconnect, expected close,
# oversized reject and bundle swap per client kind started) and exits 1
# naming the counter that failed:
#
#  * steady: a mixed well-behaved workload (closed-loop clients,
#    reconnectors, slow readers) through the gateway, with every predict
#    response required byte-identical to a direct single-worker run —
#    the sharding layer must be invisible.
#
#  * chaos: the same traffic plus protocol abusers (stallers parking
#    partial frames until the read deadline closes them, oversized
#    frames), with one worker SIGTERMed a third of the way in and the
#    live bundle atomically hot-swapped halfway through. Zero client
#    errors allowed: failover and drain-on-reload must not drop a single
#    in-flight response, and the fleet must converge on the new bundle
#    checksum.
#
# Usage: serve_soak.sh <metaopt-train> <metaopt-serve> <metaopt-gateway>
#                      <metaopt-predict> <loadgen_serve>
set -u

TRAIN="$1"
SERVE="$2"
GATEWAY="$3"
PREDICT="$4"
LOADGEN="$5"

WORK="${TMPDIR:-/tmp}/metaopt_serve_soak_$$"
rm -rf "$WORK"
mkdir -p "$WORK"
LIVE="$WORK/live.bundle"
GW_SOCK="$WORK/gw.sock"
# PID-derived ports keep concurrent CI jobs off each other's listeners.
PORT1=$((10000 + $$ % 20000))
PORT2=$((PORT1 + 1))
W1_PID=""
W2_PID=""
GW_PID=""

fail() {
    echo "serve_soak: FAIL: $1" >&2
    for PID in $W1_PID $W2_PID $GW_PID; do
        kill -KILL "$PID" 2>/dev/null
    done
    exit 1
}

cleanup() {
    for PID in $W1_PID $W2_PID $GW_PID; do
        kill -KILL "$PID" 2>/dev/null
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

# --- 1. Two distinct bundles: the serving one and the hot-swap one. -----
"$TRAIN" --out="$WORK/a.bundle" --classifier=nn --cv=none \
         --corpus-min=2 --corpus-max=3 --cache-dir="$WORK/cache" \
    || fail "training bundle A failed"
"$TRAIN" --out="$WORK/b.bundle" --classifier=nn --cv=none \
         --corpus-min=3 --corpus-max=4 --cache-dir="$WORK/cache" \
    || fail "training bundle B failed"
cmp -s "$WORK/a.bundle" "$WORK/b.bundle" \
    && fail "bundles A and B are identical; the swap would be a no-op"
cp "$WORK/a.bundle" "$LIVE"

# --- 2. Two workers on TCP, both watching the live bundle path. ---------
"$SERVE" --bundle="$LIVE" --tcp-port="$PORT1" --reload-poll-ms=100 \
         2> "$WORK/w1.log" &
W1_PID=$!
"$SERVE" --bundle="$LIVE" --tcp-port="$PORT2" --reload-poll-ms=100 \
         2> "$WORK/w2.log" &
W2_PID=$!

"$PREDICT" --socket="127.0.0.1:$PORT1" --connect-timeout-ms=10000 --health \
    > /dev/null || fail "worker 1 never became healthy: $(cat "$WORK/w1.log")"
"$PREDICT" --socket="127.0.0.1:$PORT2" --connect-timeout-ms=10000 --health \
    > /dev/null || fail "worker 2 never became healthy: $(cat "$WORK/w2.log")"

# --- 3. The gateway fronting both. --------------------------------------
"$GATEWAY" --backends="127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
           --socket="$GW_SOCK" --health-interval-ms=200 \
           --read-timeout-ms=1000 2> "$WORK/gw.log" &
GW_PID=$!
"$PREDICT" --socket="$GW_SOCK" --connect-timeout-ms=10000 --health \
    > "$WORK/gw_health.json" \
    || fail "gateway never became healthy: $(cat "$WORK/gw.log")"
grep -q '"backends_healthy": *2' "$WORK/gw_health.json" \
    || fail "gateway does not see 2 healthy backends: $(cat "$WORK/gw_health.json")"

# --- 4. Phase A: steady soak, byte-identical to a direct worker. --------
"$LOADGEN" --socket="$GW_SOCK" --reference="127.0.0.1:$PORT1" \
           --soak --duration-s=6 --label=steady \
           --clients=4 --reconnectors=2 --slow-readers=1 \
           > "$WORK/steady.out" 2>&1 \
    || fail "steady soak failed: $(cat "$WORK/steady.out")"

# --- 5. Phase B: chaos soak with a worker kill and a bundle swap. -------
"$LOADGEN" --socket="$GW_SOCK" \
           --soak --duration-s=15 --label=chaos \
           --clients=4 --reconnectors=2 --slow-readers=1 \
           --stallers=1 --oversized=1 \
           --swap-bundle="$WORK/b.bundle" --swap-target="$LIVE" \
           > "$WORK/chaos.out" 2>&1 &
SOAK_PID=$!

# A third of the way in, SIGTERM one worker; the gateway must fail the
# traffic over without a single client-visible error.
sleep 5
kill -TERM "$W2_PID" || fail "could not SIGTERM worker 2"
wait "$SOAK_PID" || fail "chaos soak failed: $(cat "$WORK/chaos.out")"

wait "$W2_PID"
W2_STATUS=$?
W2_PID=""
[ "$W2_STATUS" -eq 0 ] \
    || fail "worker 2 exited $W2_STATUS after SIGTERM: $(cat "$WORK/w2.log")"

# The gateway must now report the fleet as degraded, still serving.
"$PREDICT" --socket="$GW_SOCK" --health > "$WORK/degraded.json" 2>/dev/null
grep -q '"status": *"degraded"' "$WORK/degraded.json" \
    || fail "gateway not degraded after the kill: $(cat "$WORK/degraded.json")"

# --- 6. Everything drains cleanly. --------------------------------------
kill -TERM "$GW_PID"
kill -TERM "$W1_PID"
for NAME in gateway worker1; do
    if [ "$NAME" = gateway ]; then PID=$GW_PID; else PID=$W1_PID; fi
    WAITED=0
    while kill -0 "$PID" 2>/dev/null; do
        [ "$WAITED" -lt 100 ] || fail "$NAME did not exit within 10s"
        sleep 0.1
        WAITED=$((WAITED + 1))
    done
    wait "$PID"
    STATUS=$?
    [ "$STATUS" -eq 0 ] || fail "$NAME exited $STATUS"
done
GW_PID=""
W1_PID=""
grep -q "drained cleanly" "$WORK/gw.log" \
    || fail "gateway log missing the drain summary"

echo "serve_soak: PASS"
cat "$WORK/steady.out" "$WORK/chaos.out"
exit 0
