#!/bin/sh
# Trains a model bundle and takes the serving stack for a spin.
#
# Run from the repository root after building:
#   cmake -B build -S . && cmake --build build -j
#   examples/serving/train_bundle.sh
#
# The walkthrough in docs/SERVING.md explains each step.
set -eu

BUILD="${BUILD_DIR:-build}"
OUT="${1:-/tmp/metaopt-demo.bundle}"
SOCKET="${TMPDIR:-/tmp}/metaopt-demo-$$.sock"
LOOPS="$(dirname "$0")/loops"

echo "== 1. Train a near-neighbor model and publish it as a bundle =="
# --corpus-min/max shrink the corpus so the demo labels in seconds; drop
# them (and add --cv=loocv) for a paper-sized training run.
"$BUILD/tools/metaopt-train" --out="$OUT" --classifier=nn \
    --corpus-min=2 --corpus-max=3 --cv=loocv

echo
echo "== 2. Inspect the published artifact =="
"$BUILD/tools/metaopt-train" --inspect "$OUT"

echo
echo "== 3. Serve it and ask for predictions =="
"$BUILD/tools/metaopt-serve" --bundle="$OUT" --socket="$SOCKET" &
SERVE_PID=$!
trap 'kill -TERM $SERVE_PID 2>/dev/null; wait $SERVE_PID 2>/dev/null' EXIT

"$BUILD/tools/metaopt-predict" --socket="$SOCKET" --health
"$BUILD/tools/metaopt-predict" --socket="$SOCKET" --scores \
    "$LOOPS"/saxpy.loop "$LOOPS"/reduction.loop "$LOOPS"/search.loop

echo
echo "== 4. Soak it (32 clients for 2 s, byte-identity checked) =="
"$BUILD/bench/loadgen_serve" --socket="$SOCKET" --soak --duration-s=2 \
    --clients=32 --scores --reference="$SOCKET"

echo
echo "== 5. Drain =="
"$BUILD/tools/metaopt-predict" --socket="$SOCKET" --stats
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "demo bundle left at $OUT"
