#!/usr/bin/env bash
# results_drift.sh — the results-drift guard.
#
# The committed results/ hold three reproductions at the default seed:
#
#   results/quick_fig2a.txt        quick-mode Figure 2a table
#   results/reproduce_output.txt   stdout of `reproduce -experiment all`
#   results/tables.json            the same run's -json table dump
#
# CI regenerates all three and requires a byte-for-byte match: any change
# to the engine, a policy, the RNG discipline, or the table renderer that
# moves a published number must show up as a reviewable diff to a
# committed artifact, never as silent drift. The full reproduction takes
# about 75 s on 2 vCPUs.
#
# After an *intentional* change to the numbers, re-record with:
#
#   WRITE=1 bash scripts/results_drift.sh
#
# and commit the updated files alongside the change that moved them.
set -u

QUICK="results/quick_fig2a.txt"
FULL_OUT="results/reproduce_output.txt"
FULL_JSON="results/tables.json"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go run ./cmd/reproduce -quick -experiment fig2a -seed 42 >"$tmp/quick_fig2a.txt" ||
    { echo "results-drift: quick reproduction failed" >&2; exit 1; }
go run ./cmd/reproduce -experiment all -json "$tmp/tables.json" >"$tmp/reproduce_output.txt" 2>"$tmp/stderr.txt" ||
    { cat "$tmp/stderr.txt" >&2; echo "results-drift: full reproduction failed" >&2; exit 1; }

if [ "${WRITE:-0}" = "1" ]; then
    cp "$tmp/quick_fig2a.txt" "$QUICK"
    cp "$tmp/reproduce_output.txt" "$FULL_OUT"
    cp "$tmp/tables.json" "$FULL_JSON"
    echo "results-drift: re-recorded $QUICK, $FULL_OUT and $FULL_JSON"
    exit 0
fi

fail=0
for golden in "$QUICK" "$FULL_OUT" "$FULL_JSON"; do
    if [ ! -f "$golden" ]; then
        echo "results-drift: missing $golden (run WRITE=1 $0)" >&2
        fail=1
    elif ! diff -u "$golden" "$tmp/$(basename "$golden")"; then
        echo "results-drift: FAIL — regenerated output differs from committed $golden" >&2
        fail=1
    fi
done
if [ "$fail" != 0 ]; then
    echo "results-drift: if the change is intentional, WRITE=1 bash $0 and commit" >&2
    exit 1
fi
echo "results-drift: PASS — $QUICK, $FULL_OUT and $FULL_JSON match a fresh reproduction"
