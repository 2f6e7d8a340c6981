#!/usr/bin/env bash
# Runs the same bench binaries from two build trees and diffs what they
# print, the metrics JSON they write and the trace JSON they export. A
# change that claims to alter only how fast the simulator runs (not what it
# simulates) must leave all three byte-identical.
#
# Usage: bench/compare_outputs.sh BUILD_A BUILD_B
#   BUILD_A, BUILD_B: cmake build trees (each with a bench/ directory),
#   e.g. one built from the parent commit and one from the change.
# The metrics snapshot's "git" provenance field names the commit each tree
# was built from, so it is masked before the comparison; every other byte
# counts. Exits 0 when every output matches, 1 on any difference, 2 on
# misuse or a failed run.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi

BUILD_A="$1"
BUILD_B="$2"
BINARIES="fig10_ack_window fig14_nak_scalability fig18_tree_height abl_loss_sweep abl_fault_burst"

for build in "$BUILD_A" "$BUILD_B"; do
  for name in $BINARIES; do
    if [ ! -x "$build/bench/$name" ]; then
      echo "missing $build/bench/$name (build both trees first)" >&2
      exit 2
    fi
  done
done

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

same=0
differ=0
for name in $BINARIES; do
  for side in a b; do
    if [ "$side" = a ]; then build="$BUILD_A"; else build="$BUILD_B"; fi
    out="$TMP_DIR/$name.$side"
    if ! "$build/bench/$name" --quick --jobs=1 "--metrics-out=$out.metrics.json" \
         "--trace-out=$out.trace.json" > "$out.stdout" 2> "$out.stderr"; then
      echo "FAIL $name: $build/bench/$name exited non-zero" >&2
      sed 's/^/  | /' "$out.stderr" | tail -5 >&2
      exit 2
    fi
    sed -i 's/^\(    "git": \)".*"/\1"*"/' "$out.metrics.json"
  done
  for kind in stdout metrics.json trace.json; do
    if cmp -s "$TMP_DIR/$name.a.$kind" "$TMP_DIR/$name.b.$kind"; then
      echo "same   $name $kind ($(wc -c < "$TMP_DIR/$name.a.$kind") bytes)"
      same=$((same + 1))
    else
      echo "DIFFER $name $kind"
      diff "$TMP_DIR/$name.a.$kind" "$TMP_DIR/$name.b.$kind" | head -10 | sed 's/^/  | /'
      differ=$((differ + 1))
    fi
  done
done

echo "compare_outputs: $same identical, $differ different"
[ "$differ" -eq 0 ]
