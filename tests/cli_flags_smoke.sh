#!/usr/bin/env bash
# Bad flag values must fail fast: fsjoin_cli, fsjoin_worker, the benches'
# shared flags and the examples' positional arguments exit 2 with a message
# naming the argument, instead of reading `--theta abc` as 0 the way atof
# would. Removed flags are unknown flags (exit 2). A good value still runs
# the join, and a result sink that cannot be written exits nonzero.
#
# usage: cli_flags_smoke.sh FSJOIN_CLI FSJOIN_WORKER BENCH EMAIL_DEDUP
#                           RECORD_LINKAGE CLUSTER_TUNING
set -uo pipefail
cli=$1
worker=$2
bench=$3
email_dedup=$4
record_linkage=$5
cluster_tuning=$6

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf 'a b c d e\na b c d f\nx y z w\n' > "$tmp/corpus.txt"

failures=0
expect_bad() {  # expect_bad FLAG-NAME COMMAND...
  local flag=$1
  shift
  local code=0
  "$@" > /dev/null 2> "$tmp/err" || code=$?
  if ((code != 2)) || ! grep -q -- "$flag" "$tmp/err"; then
    echo "FAIL: '$*' exited $code (want 2) with: $(head -1 "$tmp/err")" >&2
    failures=$((failures + 1))
  fi
}

join=("$cli" --input "$tmp/corpus.txt")
expect_bad --theta "${join[@]}" --theta abc
expect_bad --theta "${join[@]}" --theta 0
expect_bad --theta "${join[@]}" --theta 1.5
expect_bad --theta "${join[@]}" --theta 0.8x
expect_bad --fragments "${join[@]}" --fragments abc
expect_bad --fragments "${join[@]}" --fragments 0
expect_bad --fragments "${join[@]}" --fragments 99999999999
expect_bad --horizontal "${join[@]}" --horizontal -1
expect_bad --threads "${join[@]}" --threads 4x
expect_bad --threads "${join[@]}" --threads -2
expect_bad --task-retries "${join[@]}" --task-retries two
expect_bad --spawn-local-workers "${join[@]}" --spawn-local-workers -3
expect_bad --heartbeat-ms "${join[@]}" --heartbeat-ms 1e3
# Engine settings and flag combinations are checked before any input is
# read: the input path here does not exist.
missing=("$cli" --input "$tmp/missing.txt")
expect_bad --spawn-local-workers "${missing[@]}" --spawn-local-workers 2
expect_bad --runner "${missing[@]}" --runner cluster
expect_bad --shuffle-mem "${missing[@]}" --shuffle-mem 1
expect_bad --heartbeat-ms "${missing[@]}" --runner cluster \
  --spawn-local-workers 1 --heartbeat-ms 10
expect_bad --tokenizer "${join[@]}" --tokenizer qgramx
expect_bad --tokenizer "${join[@]}" --tokenizer qgram0
expect_bad --runner "${join[@]}" --runner warp
expect_bad --function "${join[@]}" --function warp
expect_bad --method "${join[@]}" --method warp
expect_bad --timeout-ms "$worker" --listen 127.0.0.1:1 --timeout-ms soon
printf 'a b c d e\n' > "$tmp/right.txt"
# Removed flags are unknown flags now: "backend" chose the execution
# engine, "rs" was a legacy alias of --right, "auto" and "sample-rate" ran
# the sampling auto-tuner, "parallel-join" and "morsel" switched the
# fragment joins' morsels, which now always run on the thread runner, and
# "kernel" chose among overlap kernels, of which one is left.
for removed in backend rs auto sample-rate parallel-join morsel kernel; do
  expect_bad "--$removed" "${join[@]}" "--$removed" "$tmp/right.txt"
done
expect_bad --warmup "$bench" --warmup=-3
expect_bad --repeat "$bench" --repeat=0
expect_bad FSJOIN_BENCH_SCALE env FSJOIN_BENCH_SCALE=0.5x "$bench"
expect_bad theta "$email_dedup" abc
expect_bad theta "$record_linkage" 0
expect_bad num_records "$cluster_tuning" 2k

if ! "${join[@]}" --theta 0.6 --fragments 2 --threads 2 --tokenizer qgram2 \
    > "$tmp/out"; then
  echo "FAIL: a join with good flags failed" >&2
  failures=$((failures + 1))
fi

# --right alone implies --join rs: record 0 of R equals record 0 of S, a
# pair only an R-S join can emit (a self join never pairs a record with
# itself).
if ! "${join[@]}" --right "$tmp/right.txt" --theta 0.9 > "$tmp/rs" ||
    ! grep -q '^0 0 1' "$tmp/rs"; then
  echo "FAIL: --right FILE did not run an R-S join: $(head -3 "$tmp/rs")" >&2
  failures=$((failures + 1))
fi

# A result sink that fails on write (ENOSPC) must not exit 0 with every
# pair lost.
if [[ -e /dev/full ]]; then
  code=0
  "${join[@]}" --theta 0.6 --output /dev/full 2> "$tmp/err" || code=$?
  if ((code == 0)) || ! grep -q -- /dev/full "$tmp/err"; then
    echo "FAIL: --output /dev/full exited $code with: $(head -1 "$tmp/err")" >&2
    failures=$((failures + 1))
  fi
else
  echo "skip: no /dev/full, result-sink write error not checked"
fi

((failures == 0)) || exit 1
echo "every bad flag value and removed flag exited 2 naming the flag"
