#!/usr/bin/env bash
# End-to-end benchmark (see README.md in this directory).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-dir DIR] [--out DIR]
#   bench/e2e/run.sh --check [--seed N]
#
# Builds the benchmark, and the repository it links, into build-bench/;
# trains or loads the surrogate in .bench-cache/ (untimed, excluded from
# every metric); then runs each requested workload in its own process —
# every workload when --workload is not given — for --seconds of timed reps
# each (default 20, the run_seconds of BENCHMARK.json). Build and training
# output go to stderr; stdout carries only `workload metric value unit`
# lines and, last for each workload, its result JSON. Exits non-zero when a
# build, a run or any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench"
cache="$root/.bench-cache"
workloads=(fleet_aligned fleet_staggered fleet_sharded chaos_durable)

usage() {
  echo "usage: $0 [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" \
       "[--trace-dir DIR] [--out DIR] | --check [--seed N]" >&2
  exit 2
}

selected=()
check=0
pass=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || usage; selected=("$2"); shift 2 ;;
    --check) check=1; shift ;;
    --seed|--seconds|--trace|--trace-dir|--out)
      [[ $# -ge 2 ]] || usage; pass+=("$1" "$2"); shift 2 ;;
    *) usage ;;
  esac
done
[[ ${#selected[@]} -gt 0 ]] || selected=("${workloads[@]}")

# Compilers and the trainer write scratch files; keep them in the checkout.
mkdir -p "$cache/tmp"
export TMPDIR="$cache/tmp"
# The kernels run on one OpenMP thread; the runtime's own threads (the
# shards and the encode-overlap thread) are left as they are. An OpenMP team
# on every core waits at each barrier for its slowest member, so on a shared
# host one busy core stalls the whole encode: over six seeds fleet_staggered
# read a 56% spread in decisions/s with the default team, against 8% with
# one thread. Every result records the setting.
export OMP_NUM_THREADS=1

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target e2e compare >&2

# Provenance only; a checkout without git history reports "unknown", and a
# tree with uncommitted changes gets a "-dirty" suffix.
rev="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
       git -C "$root" describe --always --dirty --abbrev=12 2>/dev/null ||
       echo unknown)"

"$build/e2e" --prepare --cache "$cache" >&2

if [[ $check -eq 1 ]]; then
  exec "$build/e2e" --check --cache "$cache" "${pass[@]}"
fi

status=0
for w in "${selected[@]}"; do
  "$build/e2e" --workload "$w" --cache "$cache" --git-rev "$rev" \
    "${pass[@]}" || status=1
done
exit $status
