#!/usr/bin/env bash
# Builds the perf ledger against the source tree it sits in and runs it.
#
#   bash bench/ledger/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/ledger/run.sh --seed <n>     # every workload, one process each
#
# The build goes to .bench_build/ledger. Each run writes
# .bench_build/ledger/out/<workload>[_trace].json, stamped with the commit,
# the CPU count and this exact command. The last line on stdout is the
# ledger's JSON result; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -f src/CMakeLists.txt ]]; then
  echo "run.sh: no mobicache source tree at $root" >&2
  exit 2
fi

build=.bench_build/ledger
jobs=$(nproc)
if ((jobs > 4)); then jobs=4; fi
{
  cmake -S bench/ledger -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target ledger -j "$jobs"
} >&2

# Stop git at the checkout: a tree that is not a repository reads "unknown".
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
command=$(printf '%q ' bash "$0" "$@")
stamp=(--out="$build/out" --commit="$commit" --nproc="$(nproc)"
  --command="${command% }")

if [[ " $* " == *" --workload"* ]]; then
  exec "$build/ledger" "$@" "${stamp[@]}"
fi
for workload in station station_observed fleet_sharded fleet_coop \
  fleet_mobility; do
  "$build/ledger" --workload="$workload" "$@" "${stamp[@]}"
done
