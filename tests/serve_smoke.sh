#!/bin/sh
# Daemon smoke test for the serving stack (ctest label: serve).
#
# End to end: metaopt-train publishes a bundle from a tiny corpus (reruns
# sharing its --cache-dir must relabel a changed corpus and reproduce the
# bundle byte for byte), metaopt-serve loads it, 32 concurrent
# metaopt-predict clients all ask for the same predictions with --json and
# every response line must be byte-identical, a loadgen_serve soak hammers
# the daemon while checking every response against a serial reference
# pass, and finally SIGTERM must drain cleanly: exit status 0, every
# client answered, and the socket file removed.
#
# Usage: serve_smoke.sh <metaopt-train> <metaopt-serve> <metaopt-predict>
#                       <loadgen_serve>
set -u

TRAIN="$1"
SERVE="$2"
PREDICT="$3"
LOADGEN="$4"

WORK="${TMPDIR:-/tmp}/metaopt_serve_smoke_$$"
rm -rf "$WORK"
mkdir -p "$WORK"
BUNDLE="$WORK/model.bundle"
SOCKET="$WORK/serve.sock"
SERVE_PID=""

fail() {
    echo "serve_smoke: FAIL: $1" >&2
    [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2>/dev/null
    exit 1
}

cleanup() {
    [ -n "$SERVE_PID" ] && kill -KILL "$SERVE_PID" 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

# --- 1. Train and publish a bundle (tiny corpus keeps this fast). -------
train() {
    LOG="$1"
    shift
    "$TRAIN" --classifier=nn --cv=none "$@" 2> "$WORK/$LOG.log" \
        || fail "metaopt-train $* exited non-zero: $(cat "$WORK/$LOG.log")"
}
labeled() {
    sed -n 's/^metaopt-train: \([0-9]*\) labeled loops$/\1/p' "$WORK/$1.log"
}
train cold --out="$BUNDLE" --corpus-min=2 --corpus-max=3 \
      --cache-dir="$WORK/cache"
[ -f "$BUNDLE" ] || fail "no bundle was written"

# --cache-dir persists the simulation cache, the only label cache. A run
# with another corpus size sharing the directory must label its own
# corpus, exactly as an uncached run does, and a warm rerun must publish
# the byte-identical bundle.
train bigger --out="$WORK/bigger.bundle" --corpus-min=3 --corpus-max=4 \
      --cache-dir="$WORK/cache"
train uncached --out="$WORK/uncached.bundle" --corpus-min=3 --corpus-max=4
train warm --out="$WORK/warm.bundle" --corpus-min=2 --corpus-max=3 \
      --cache-dir="$WORK/cache"
COLD=$(labeled cold)
BIGGER=$(labeled bigger)
[ -n "$COLD" ] && [ -n "$BIGGER" ] \
    || fail "metaopt-train did not report its labeled-loop count"
[ "$BIGGER" != "$COLD" ] \
    || fail "a shared --cache-dir ignored --corpus-min/--corpus-max ($COLD labeled loops twice)"
[ "$BIGGER" = "$(labeled uncached)" ] \
    || fail "cached run labeled $BIGGER loops, uncached $(labeled uncached)"
cmp -s "$WORK/bigger.bundle" "$WORK/uncached.bundle" \
    || fail "cached and uncached runs published different bundles"
[ "$(labeled warm)" = "$COLD" ] \
    || fail "warm rerun labeled $(labeled warm) loops, cold run $COLD"
cmp -s "$BUNDLE" "$WORK/warm.bundle" \
    || fail "warm rerun published a different bundle than the cold run"
[ -f "$WORK/cache/sim_cache.bin" ] \
    || fail "--cache-dir did not persist the simulation cache"

# A trained bundle must pass inspection.
"$TRAIN" --inspect "$BUNDLE" > "$WORK/inspect.txt" \
    || fail "bundle failed inspection: $(cat "$WORK/inspect.txt")"

# A corrupted copy must be rejected.
cp "$BUNDLE" "$WORK/corrupt.bundle"
printf 'x' | dd of="$WORK/corrupt.bundle" bs=1 seek=100 conv=notrunc 2>/dev/null
if "$TRAIN" --inspect "$WORK/corrupt.bundle" > /dev/null 2>&1; then
    fail "corrupted bundle passed inspection"
fi

# --- 2. Start the daemon. -----------------------------------------------
"$SERVE" --bundle="$BUNDLE" --socket="$SOCKET" 2> "$WORK/serve.log" &
SERVE_PID=$!

# --- 3. Health check (retries until the socket appears). ----------------
"$PREDICT" --socket="$SOCKET" --connect-timeout-ms=10000 --health \
    > "$WORK/health.json" || fail "health check failed"
grep -q '"status":"ok"' "$WORK/health.json" || fail "health not ok"

# --- 4. Concurrent clients must get byte-identical responses. -----------
cat > "$WORK/sample.loop" <<'EOF'
loop "smoke.saxpy" lang=C nest=1 trip=1024 rtrip=1024 {
  %f_x = load @0[stride=8, offset=0, size=8]
  %f_y = load @1[stride=8, offset=0, size=8]
  %f_ax = fmul %f_x, %f_a
  %f_s = fadd %f_ax, %f_y
  store %f_s, @1[stride=8, offset=0, size=8]
  %i_iv.next = iv_add %i_iv
  %p_iv.cond = iv_cmp %i_iv.next
  back_br %p_iv.cond
}
EOF

CLIENTS=32
CLIENT_PIDS=""
I=0
while [ "$I" -lt "$CLIENTS" ]; do
    "$PREDICT" --socket="$SOCKET" --json --scores \
        "$WORK/sample.loop" "$WORK/sample.loop" "$WORK/sample.loop" \
        > "$WORK/client.$I.out" 2>> "$WORK/clients.err" &
    CLIENT_PIDS="$CLIENT_PIDS $!"
    I=$((I + 1))
done
for PID in $CLIENT_PIDS; do
    wait "$PID" || fail "concurrent client (pid $PID) exited non-zero"
done
CLIENT_FAILURES=0
I=0
while [ "$I" -lt "$CLIENTS" ]; do
    [ -s "$WORK/client.$I.out" ] || CLIENT_FAILURES=$((CLIENT_FAILURES + 1))
    if ! cmp -s "$WORK/client.0.out" "$WORK/client.$I.out"; then
        CLIENT_FAILURES=$((CLIENT_FAILURES + 1))
    fi
    I=$((I + 1))
done
[ "$CLIENT_FAILURES" -eq 0 ] \
    || fail "$CLIENT_FAILURES of $CLIENTS concurrent clients diverged"
grep -q '"status":"ok"' "$WORK/client.0.out" || fail "predictions not ok"

# A malformed loop must be rejected, not crash the daemon.
printf 'loop "broken" {\n' > "$WORK/broken.loop"
if "$PREDICT" --socket="$SOCKET" --json "$WORK/broken.loop" \
        > "$WORK/broken.json" 2>/dev/null; then
    fail "malformed loop was accepted"
fi
grep -q '"status":"malformed"' "$WORK/broken.json" \
    || fail "malformed loop not reported as malformed"

# --- 5. Sustained load, byte-identical to a serial reference pass. ------
"$LOADGEN" --socket="$SOCKET" --soak --duration-s=2 --clients="$CLIENTS" \
    --scores --reference="$SOCKET" > "$WORK/loadgen.out" 2>&1 \
    || fail "loadgen soak failed: $(cat "$WORK/loadgen.out")"

# --- 6. SIGTERM must drain cleanly. -------------------------------------
kill -TERM "$SERVE_PID"
WAITED=0
while kill -0 "$SERVE_PID" 2>/dev/null; do
    [ "$WAITED" -lt 100 ] || fail "daemon did not exit within 10s of SIGTERM"
    sleep 0.1
    WAITED=$((WAITED + 1))
done
wait "$SERVE_PID"
STATUS=$?
SERVE_PID=""
[ "$STATUS" -eq 0 ] \
    || fail "daemon exited $STATUS after SIGTERM: $(cat "$WORK/serve.log")"
[ ! -e "$SOCKET" ] || fail "daemon left its socket file behind"
grep -q "drained cleanly" "$WORK/serve.log" \
    || fail "daemon log missing the drain summary"

echo "serve_smoke: PASS ($CLIENTS concurrent clients; $(cat "$WORK/loadgen.out"))"
exit 0
