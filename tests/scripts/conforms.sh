#!/usr/bin/env bash
# Self-conformance: the schema `pghive discover` writes for a graph must
# validate STRICT against that graph. Exits with validate's status (0 iff it
# prints CONFORMS).
#
#   conforms.sh PGHIVE GRAPH OUT_PREFIX [discover flags...]
set -euo pipefail
pghive=$1
graph=$2
out=$3
shift 3
"$pghive" discover --graph "$graph" --out "$out" "$@" > /dev/null
"$pghive" validate --graph "$graph" --schema "$out.pgs" --strict
