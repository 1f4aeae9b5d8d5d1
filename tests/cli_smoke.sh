#!/bin/sh
# Command-line contract of every tool, bench and example binary (ctest
# label: cli). Each must answer --help with exit 0 and its usage alone,
# and reject --bogus-flag with a non-zero exit and a message naming it.
# Neither may run anything: each call runs in an empty directory that
# must stay empty, and --help's stdout must be exactly the usage text,
# from its "usage:" line to the closing --version row (microbench_classifiers
# keeps google-benchmark's parser, whose usage starts "benchmark [").
#
# Usage: cli_smoke.sh <binary> ...
set -u

WORK="${TMPDIR:-/tmp}/metaopt_cli_smoke_$$"
STATUS=0

fail() {
    echo "cli_smoke: FAIL: $1" >&2
    STATUS=1
}

for BIN in "$@"; do
    NAME=$(basename "$BIN")
    rm -rf "$WORK"
    mkdir -p "$WORK/run"

    (cd "$WORK/run" && "$BIN" --help) > "$WORK/help.out" 2>&1
    CODE=$?
    FIRST=$(head -n 1 "$WORK/help.out")
    LAST=$(tail -n 1 "$WORK/help.out")
    if [ "$CODE" -ne 0 ]; then
        fail "$NAME --help exited $CODE"
    fi
    case "$FIRST" in
        "usage: $NAME "*)
            case "$LAST" in
                *"--version"*"print the version and exit") ;;
                *) fail "$NAME --help printed more than its usage" ;;
            esac ;;
        "benchmark ["*) ;;
        *) fail "$NAME --help does not start with its usage: $FIRST" ;;
    esac

    (cd "$WORK/run" && "$BIN" --bogus-flag) > "$WORK/bogus.out" 2>&1
    CODE=$?
    if [ "$CODE" -eq 0 ]; then
        fail "$NAME accepted --bogus-flag"
    elif ! grep -qF -- "--bogus-flag" "$WORK/bogus.out"; then
        fail "$NAME rejected --bogus-flag without naming it"
    fi

    if [ -n "$(ls -A "$WORK/run")" ]; then
        fail "$NAME wrote files while only parsing its flags"
    fi
done

rm -rf "$WORK"
if [ "$STATUS" -eq 0 ]; then
    echo "cli_smoke: $# binaries answer --help and reject --bogus-flag"
fi
exit "$STATUS"
