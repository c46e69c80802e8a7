#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs workloads, each in
# a fresh process.
#
#   benchmark/run.sh [--seed N] [--workloads a,b | --workload a]
#                    [--seconds S] [--trace 0|1] [--out DIR]
#
# For every workload it prints `workload metric value unit n q1 q3` per
# end-to-end metric (with --trace 1 also the per-layer metrics), writes
# DIR/<workload>.json, DIR/results.json and, traced, DIR/trace-<workload>.json.
# The last line of standard output is the JSON result of the last workload.
# Exits 0 when every output was correct, 1 on a wrong or failed join, a
# failed oracle self-test or a crashed workload, 2 on bad arguments.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"
bin="$build/fsjoin_bench"

usage() {
  echo "run.sh: $1" >&2
  echo "usage: benchmark/run.sh [--seed N] [--workloads a,b | --workload a]" \
       "[--seconds S] [--trace 0|1] [--out DIR]" >&2
  exit 2
}

seed=1
workloads=""
seconds=""
trace=0
out="$build/results"
while (($#)); do
  case "$1" in
    --seed | --workload | --workloads | --seconds | --trace | --out)
      (($# >= 2)) || usage "missing value for $1"
      case "$1" in
        --seed) seed="$2" ;;
        --workload | --workloads) workloads="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --out) out="$2" ;;
      esac
      shift 2
      ;;
    *) usage "unknown flag: $1" ;;
  esac
done

# Build logs go to stderr so standard output stays the results.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target fsjoin_bench -j "$(nproc)" >&2

[[ -n "$workloads" ]] || workloads="$("$bin" --list-workloads | paste -sd, -)"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
work="$build/work"

# fsjoin_bench validates every value; a bad one stops here with exit 2.
"$bin" --self-test --seed "$seed" --workloads "$workloads" \
  --work-dir "$work" >&2 || {
  code=$?
  ((code == 2)) && exit 2
  echo "run.sh: oracle self-test failed" >&2
  exit 1
}

commit=unknown
if [[ -d "$root/.git" ]] && command -v git > /dev/null; then
  commit="$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)"
fi

status=0
records=""
for w in ${workloads//,/ }; do
  args=(--workload "$w" --seed "$seed" --trace "$trace" --work-dir "$work"
        --json-out "$out/$w.json")
  [[ -z "$seconds" ]] || args+=(--seconds "$seconds")
  [[ "$trace" != 1 ]] || args+=(--trace-out "$out/trace-$w.json")
  rm -f "$out/$w.json"
  code=0
  # A hung workload is killed well inside a three-minute budget.
  timeout --kill-after=5 170 "$bin" "${args[@]}" || code=$?
  if ((code == 2)); then
    exit 2
  elif ((code != 0)) && [[ ! -s "$out/$w.json" ]]; then
    echo "run.sh: workload $w crashed (exit $code)" >&2
    printf '{"workload": "%s", "crashed": true, "exit_code": %d, "failed_frac": 1}\n' \
      "$w" "$code" > "$out/$w.json"
  fi
  ((code == 0)) || status=1
  records+="${records:+, }\"$w\": $(cat "$out/$w.json")"
done

printf '{"seed": %s, "commit": "%s", "trace": %s, "workloads": {%s}}\n' \
  "$seed" "$commit" "$trace" "$records" > "$out/results.json"
exit "$status"
