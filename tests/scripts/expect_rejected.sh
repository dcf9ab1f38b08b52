#!/usr/bin/env bash
# Runs a command that must be refused: it has to exit with status 1 and
# print MESSAGE (a fixed string) on stderr.
#
# Usage: expect_rejected.sh MESSAGE COMMAND [ARGS...]
set -u

message=$1
shift
stderr=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit status 1, got $status: $*" >&2
  exit 1
fi
if ! grep -qF -- "$message" <<<"$stderr"; then
  echo "stderr lacks '$message': $stderr" >&2
  exit 1
fi
echo "rejected as expected: $stderr"
