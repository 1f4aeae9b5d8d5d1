#!/bin/sh
# Bad inputs get a diagnostic and are never silently absorbed (ctest
# label: cli). A directory given where a loop file is expected makes
# metaopt-lint, metaopt-fuzz --replay and loadgen_serve exit 2 with a
# message naming the path and the OS reason. loadgen_serve's client
# counts and --oversized-bytes past their bounds exit 2 naming the
# option; those runs get no --socket, so even without the bound they
# would stop at the missing address before starting any client thread.
#
# Usage: unreadable_inputs.sh <metaopt-lint> <metaopt-fuzz> <loadgen_serve>
set -u
LINT=$1
FUZZ=$2
LOADGEN=$3

WORK="${TMPDIR:-/tmp}/metaopt_unreadable_inputs_$$"
rm -rf "$WORK"
mkdir -p "$WORK/dir.loop" "$WORK/dir.mloop"
STATUS=0

# expect <what> <text the output must hold> <command> [args...]
expect() {
    WHAT=$1
    TEXT=$2
    shift 2
    "$@" > "$WORK/out" 2>&1
    CODE=$?
    if [ "$CODE" -ne 2 ]; then
        echo "unreadable_inputs: FAIL: $WHAT exited $CODE, want 2" >&2
        cat "$WORK/out" >&2
        STATUS=1
    elif ! grep -qF -- "$TEXT" "$WORK/out"; then
        echo "unreadable_inputs: FAIL: $WHAT does not say: $TEXT" >&2
        cat "$WORK/out" >&2
        STATUS=1
    fi
}

D="$WORK/dir.loop"
expect "metaopt-lint <dir>" "'$D': Is a directory" "$LINT" "$D"
expect "metaopt-lint <dir>.mloop" "'$WORK/dir.mloop': Is a directory" \
    "$LINT" "$WORK/dir.mloop"
expect "metaopt-fuzz --replay <dir>" "'$D': Is a directory" \
    "$FUZZ" --replay "$D"
expect "loadgen_serve <dir>" "'$D': Is a directory" \
    "$LOADGEN" --soak --socket="$WORK/nobody-listens.sock" "$D"

for OPTION in clients reconnectors slow-readers stallers oversized; do
    expect "loadgen_serve --$OPTION=4097" \
        "option '--$OPTION' must be in [0, 4096]" \
        "$LOADGEN" --soak "--$OPTION=4097"
done
expect "loadgen_serve --oversized-bytes=67108865" \
    "option '--oversized-bytes' must be in [2, 67108864]" \
    "$LOADGEN" --soak --oversized-bytes=67108865

rm -rf "$WORK"
exit $STATUS
