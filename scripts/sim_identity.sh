#!/usr/bin/env bash
# Simulator identity check: proves a change leaves same-seed experiment
# output untouched. Builds cmd/hoverbench at <rev> (exported with
# `git archive` into a temp dir) and from the working tree, runs both
# with the same flags, strips the "[<exp> completed in <t> wall time]"
# lines, and diffs the rest. Exits non-zero on any difference.
#
#   scripts/sim_identity.sh <rev>                      # -quick -experiment all -seed 42
#   scripts/sim_identity.sh <rev> -experiment fig7 -seed 42   # custom hoverbench flags
#
# The default run takes about 3 minutes per binary on 2 vCPUs; both run
# concurrently.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [hoverbench flags...]" >&2
    exit 2
fi
REV=$1
shift
if [ $# -gt 0 ]; then
    FLAGS=("$@")
else
    FLAGS=(-quick -experiment all -seed 42)
fi

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== build $REV and working tree"
mkdir "$WORK/base"
git archive "$REV" | tar -x -C "$WORK/base"
(cd "$WORK/base" && go build -o "$WORK/hoverbench-base" ./cmd/hoverbench)
go build -o "$WORK/hoverbench-work" ./cmd/hoverbench

echo "== run: hoverbench ${FLAGS[*]}"
"$WORK/hoverbench-base" "${FLAGS[@]}" >"$WORK/base.out" 2>&1 &
BASE_PID=$!
"$WORK/hoverbench-work" "${FLAGS[@]}" >"$WORK/work.out" 2>&1
wait "$BASE_PID"

strip() { grep -v '^\[.* completed in .* wall time\]$' "$1" || true; }
strip "$WORK/base.out" >"$WORK/base.txt"
strip "$WORK/work.out" >"$WORK/work.txt"

if diff -u --label "$REV" --label "working tree" "$WORK/base.txt" "$WORK/work.txt"; then
    echo "== identical: $(wc -l <"$WORK/work.txt") lines"
else
    echo "== output differs from $REV" >&2
    exit 1
fi
