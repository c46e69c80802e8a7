#!/usr/bin/env bash
# Bad numeric flags must fail fast: fsjoin_cli and fsjoin_worker exit 2 with
# a message naming the flag, instead of reading `--theta abc` as 0 the way
# atof would. A good value still runs the join.
set -uo pipefail
cli=$1
worker=$2

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
expect_bad --sample-rate "${join[@]}" --auto --sample-rate -0.1
expect_bad --fragments "${join[@]}" --fragments abc
expect_bad --fragments "${join[@]}" --fragments 0
expect_bad --fragments "${join[@]}" --fragments 99999999999
expect_bad --horizontal "${join[@]}" --horizontal -1
expect_bad --threads "${join[@]}" --threads 4x
expect_bad --threads "${join[@]}" --threads -2
expect_bad --morsel "${join[@]}" --morsel ""
expect_bad --task-retries "${join[@]}" --task-retries two
expect_bad --spawn-local-workers "${join[@]}" --spawn-local-workers -3
expect_bad --heartbeat-ms "${join[@]}" --heartbeat-ms 1e3
expect_bad --tokenizer "${join[@]}" --tokenizer qgramx
expect_bad --tokenizer "${join[@]}" --tokenizer qgram0
expect_bad --timeout-ms "$worker" --listen 127.0.0.1:1 --timeout-ms soon

if ! "${join[@]}" --theta 0.6 --fragments 2 --threads 2 --tokenizer qgram2 \
    > "$tmp/out"; then
  echo "FAIL: a join with good flags failed" >&2
  failures=$((failures + 1))
fi

((failures == 0)) || exit 1
echo "every bad numeric flag exited 2 naming the flag"
