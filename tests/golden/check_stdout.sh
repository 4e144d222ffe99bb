#!/bin/sh
# Golden-stdout check: run a bench binary and compare its stdout byte
# for byte with a committed expected file, printing `diff -u` (expected
# first) on a mismatch.  Invoked by CTest as:
#   check_stdout.sh <expected-file> <binary> [args...]
# Regenerate the expected files with the command in README "Golden
# outputs", and only for a change meant to alter results.
set -u

EXPECTED=$1
shift

ACTUAL=$(mktemp)
trap 'rm -f "$ACTUAL"' EXIT

if ! "$@" >"$ACTUAL"; then
    echo "golden: command failed: $*" >&2
    exit 1
fi
diff -u "$EXPECTED" "$ACTUAL"
