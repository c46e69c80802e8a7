#!/usr/bin/env bash
# Dial-mode smoke test for the standalone worker binary: start two
# fsjoin_worker processes, join through them with `fsjoin_cli --runner
# cluster --workers host:port,...`, and require byte-identical output to
# the inline runner. This is the only place the shipped fsjoin_worker
# binary (rather than a re-execed test binary) executes tasks, so it
# guards the force-link of the core task factories into that binary — a
# static archive drops unreferenced objects, and the worker reaches
# "core.verification" purely by name over the wire.
set -euo pipefail
worker=$1
cli=$2

tmp=$(mktemp -d)
w1=
w2=
cleanup() {
  [[ -n "$w1" ]] && kill "$w1" 2>/dev/null
  [[ -n "$w2" ]] && kill "$w2" 2>/dev/null
  rm -rf "$tmp"
  return 0
}
trap cleanup EXIT

printf 'a b c d e\na b c d f\nx y z w\nx y z q\na b c e f\n' \
  > "$tmp/corpus.txt"

# Pid-derived ports below Linux's default ephemeral range (32768-60999).
# ctest -j runs the other cluster tests beside this one, and their
# listeners and connections take ephemeral ports, so a port inside that
# range could already be in use or, worse, be another test's listener.
p1=$((20000 + 2 * ($$ % 6000)))
p2=$((p1 + 1))

"$worker" --listen "127.0.0.1:$p1" &
w1=$!
"$worker" --listen "127.0.0.1:$p2" &
w2=$!

# Wait for both control ports to reach LISTEN before dialing. A probe
# connection would be accepted as the coordinator (workers serve exactly
# one session), so read kernel state instead of connecting.
listening() {
  grep -qi ":$(printf '%04X' "$1") 00000000:0000 0A" /proc/net/tcp
}
for port in "$p1" "$p2"; do
  for _ in $(seq 1 100); do
    listening "$port" && break
    sleep 0.1
  done
  listening "$port" || { echo "worker on port $port never listened" >&2; exit 1; }
done
# A worker that failed to bind has exited; the port is someone else's.
kill -0 "$w1" 2>/dev/null && kill -0 "$w2" 2>/dev/null ||
  { echo "a worker exited before serving (port in use?)" >&2; exit 1; }

"$cli" --input "$tmp/corpus.txt" --theta 0.6 > "$tmp/inline.txt"
"$cli" --input "$tmp/corpus.txt" --theta 0.6 --runner cluster \
  --workers "127.0.0.1:$p1,127.0.0.1:$p2" > "$tmp/dial.txt"

# Both workers must exit 0 on the coordinator's shutdown frame.
wait "$w1"
wait "$w2"
w1=
w2=

diff -u "$tmp/inline.txt" "$tmp/dial.txt"
echo "dial-mode output identical to inline ($(wc -l < "$tmp/dial.txt") pairs)"
