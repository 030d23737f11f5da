#!/usr/bin/env bash
# Build the repository from source and run the campaign benchmark.
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --workload all [--seed N --seconds S --trace 0|1]
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.  Results, Chrome traces and the
# per-repetition scratch directories live under perfbench/out/.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a perple checkout (dune-project, lib/, bin/ and perfbench/ are required)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
mkdir -p perfbench/out/tmp
export TMPDIR="$PWD/perfbench/out/tmp"
export PERFBENCH_PROFILE=dev
PERFBENCH_COMMIT=unknown
if [[ -e .git ]]; then
  PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT

dune build --root . --profile "$PERFBENCH_PROFILE" bin/perple.exe perfbench/bench.exe 1>&2

bench=_build/default/perfbench/bench.exe
perple=_build/default/bin/perple.exe

workload=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

if [[ "$workload" == "all" ]]; then
  status=0
  for w in campaign-long daemon-short fleet-2w verify-long; do
    "$bench" --workload "$w" --perple "$perple" --out perfbench/out "${args[@]}" || status=1
  done
  exit "$status"
fi

exec "$bench" --workload "$workload" --perple "$perple" --out perfbench/out "${args[@]}"
