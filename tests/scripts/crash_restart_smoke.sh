#!/usr/bin/env bash
# Crash-restart durability smoke on the real binaries: stream half the
# batches into a pghived running with --checkpoint-dir --checkpoint-every 2,
# wait until batch 3 is published, SIGKILL the daemon (no drain, no graceful
# anything), restart it over the same directory, and resume the session the
# daemon restored on its own. At the kill the checkpoint holds 2 batches and
# the ingest log 3, so every run takes the restore's cut-back path: batch 3
# is cut from the log and the feed, and the client re-sends it. The resumed
# schema and the full wire changefeed must be byte-identical to the one-shot
# run. The killed daemon's checkpoint is also the snapshot `pghive discover
# --checkpoint-to` writes: resumed with `discover --resume-from` and the
# killed daemon's feed segment as its --changefeed, it must land on the
# one-shot schema too, and cut the feed (v1..v3) back to the checkpoint's
# two versions before appending, so the feed equals the one-shot feed. The
# same scenario runs in the CI release job; this CTest copy keeps it
# reproducible locally.
#
# Usage: crash_restart_smoke.sh <pghive> <pghived> <workdir>
set -eu

PGHIVE=$1
PGHIVED=$2
WORK=$3

mkdir -p "$WORK"
cd "$WORK"
rm -rf crash.port ckpt killed.pghd killed.feed
mkdir -p ckpt

cleanup() {
  [ -n "${daemon:-}" ] && kill -9 "$daemon" 2>/dev/null || true
}
trap cleanup EXIT

wait_for_port() {
  for _ in $(seq 1 100); do
    [ -s crash.port ] && return 0
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

"$PGHIVED" --port 0 --port-file crash.port --checkpoint-dir ckpt \
  --checkpoint-every 2 > pghived.log 2>&1 &
daemon=$!
wait_for_port
"$PGHIVE" client --graph smoke.pg --port-file crash.port --batches 6 \
  --stop-after 3

# ingest-batch only schedules a batch. Version 3 on the changefeed means
# batch 3 is committed: logged, published, and past the checkpoint of
# batch 2.
published=
for _ in $(seq 1 100); do
  if "$PGHIVE" drift --port-file crash.port --session s1 \
      | grep -q " in 3 changefeed records"; then
    published=1
    break
  fi
  sleep 0.1
done
[ -n "$published" ] || { echo "batch 3 was never published" >&2; exit 1; }

kill -KILL "$daemon"
wait "$daemon" || true
daemon=
rm -f crash.port
# The restarted daemon checkpoints over s1.pghd and cuts s1.feed; keep what
# the kill left.
cp ckpt/s1.pghd killed.pghd
cp ckpt/s1.feed killed.feed
"$PGHIVE" discover --graph smoke.pg --batches 6 --resume-from killed.pghd \
  --changefeed killed.feed --out cli_resumed > cli_resumed.log
grep -q "resumed from killed.pghd: 2 batches already merged" cli_resumed.log

"$PGHIVED" --port 0 --port-file crash.port --checkpoint-dir ckpt \
  --checkpoint-every 2 > pghived.log 2>&1 &
daemon=$!
wait_for_port
"$PGHIVE" client --graph smoke.pg --port-file crash.port --batches 6 \
  --session s1 --out resumed --changefeed-out wire.feed > resumed.log
# The restore rolled back to the checkpoint, not to the log's end.
grep -q "resuming session s1 with 2 batches" resumed.log

kill -TERM "$daemon"
wait "$daemon"
daemon=

cmp oneshot.pgs resumed.pgs
cmp oneshot.xsd resumed.xsd
cmp oneshot.feed wire.feed
cmp oneshot.pgs cli_resumed.pgs
cmp oneshot.xsd cli_resumed.xsd
cmp oneshot.feed killed.feed
echo "crash-restart resume, CLI resume and both changefeeds are byte-identical to the one-shot run"
