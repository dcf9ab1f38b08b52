#!/usr/bin/env bash
# SIGTERM-drain durability smoke on the real binaries: stream half the
# batches into a pghived running with --checkpoint-dir, SIGTERM it mid-stream,
# restart it over the same directory, and resume the session the daemon
# restored on its own authority. The resumed schema must be byte-identical
# to the one-shot run, and the full changefeed served over the wire —
# including versions that predate the restart — must be byte-identical to
# the feed file the one-shot `discover --changefeed` writes. The same
# scenario runs in the CI release job; this CTest copy keeps it
# reproducible locally.
#
# Usage: sigterm_drain_smoke.sh <pghive> <pghived> <workdir>
set -eu

PGHIVE=$1
PGHIVED=$2
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -rf drain.port ckpt
mkdir -p ckpt

cleanup() {
  [ -n "${daemon:-}" ] && kill -9 "$daemon" 2>/dev/null || true
}
trap cleanup EXIT

wait_for_port() {
  for _ in $(seq 1 100); do
    [ -s drain.port ] && return 0
    sleep 0.1
  done
  echo "pghived did not write its port file" >&2
  cat pghived.log >&2 || true
  return 1
}

"$PGHIVE" generate --dataset POLE --scale 0.05 --seed 7 --out smoke.pg \
  > /dev/null
"$PGHIVE" discover --graph smoke.pg --batches 6 --out oneshot \
  --changefeed oneshot.feed > /dev/null

"$PGHIVED" --port 0 --port-file drain.port --checkpoint-dir ckpt \
  > pghived.log 2>&1 &
daemon=$!
wait_for_port
"$PGHIVE" client --graph smoke.pg --port-file drain.port --batches 6 \
  --stop-after 3

# The drain must checkpoint every live session and exit 0 — a non-zero exit
# here means the daemon died without draining.
kill -TERM "$daemon"
wait "$daemon"
daemon=
rm -f drain.port

"$PGHIVED" --port 0 --port-file drain.port --checkpoint-dir ckpt \
  > pghived.log 2>&1 &
daemon=$!
wait_for_port
# --session s1: the restarted daemon already restored the session from
# ckpt/; the client only asks where to resume from.
"$PGHIVE" client --graph smoke.pg --port-file drain.port --batches 6 \
  --session s1 --out resumed --changefeed-out wire.feed > /dev/null

kill -TERM "$daemon"
wait "$daemon"
daemon=

cmp oneshot.pgs resumed.pgs
cmp oneshot.xsd resumed.xsd
cmp oneshot.feed wire.feed
"$PGHIVE" drift --feed wire.feed > /dev/null
echo "sigterm-drain resume and changefeed are byte-identical to the one-shot run"
