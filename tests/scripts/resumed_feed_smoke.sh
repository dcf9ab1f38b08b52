#!/usr/bin/env bash
# A resumed `pghive discover --changefeed` run must leave the feed the
# uninterrupted run writes, byte for byte, whatever the interrupted run left
# past its snapshot. The kill state: checkpoint c2 holds 2 batches while the
# feed holds versions 1..3, which is what a kill after batch 3 of a
# `--checkpoint-every 2` run leaves; TORN > 0 also tears that many bytes off
# the feed's last record. Resuming from c2 must cut the feed back to
# versions 1..2 and write version 3 on only once.
#
# Usage: resumed_feed_smoke.sh <pghive> <graph> <workdir> <torn bytes>
set -eu

PGHIVE=$1
GRAPH=$2
WORK=$3
TORN=$4

mkdir -p "$WORK"
cd "$WORK"
rm -f oneshot.feed c2.ckpt c3.ckpt killed.feed

"$PGHIVE" discover --graph "$GRAPH" --batches 6 --changefeed oneshot.feed \
  > /dev/null
"$PGHIVE" discover --graph "$GRAPH" --batches 6 --stop-after 2 \
  --checkpoint-to c2.ckpt > /dev/null
"$PGHIVE" discover --graph "$GRAPH" --batches 6 --stop-after 3 \
  --checkpoint-to c3.ckpt --changefeed killed.feed > /dev/null
if [ "$TORN" -gt 0 ]; then
  truncate -s "-$TORN" killed.feed
fi
"$PGHIVE" discover --graph "$GRAPH" --batches 6 --resume-from c2.ckpt \
  --changefeed killed.feed > /dev/null
cmp oneshot.feed killed.feed
echo "resumed feed (torn bytes: $TORN) is byte-identical to the one-shot feed"
