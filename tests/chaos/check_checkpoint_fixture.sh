#!/usr/bin/env bash
# Checkpoint-format freeze check for ranycast-chaos.
#
# tests/chaos/data holds a checkpoint chain and a report recorded by an
# earlier build with
#
#   ranycast-chaos --scenario configs/chaos_overload.json --transient --traffic \
#                  --stubs 800 --format json [--checkpoint chaos_overload.ck --abort-after 2]
#
# and this script checks the current build against them:
#   1. killed at the same point, it writes byte-identical generation files
#      and manifest;
#   2. resumed from the recorded chain, it prints the recorded report byte
#      for byte.
# A change to a record's field list or to the codec fails (1); a decoder
# that no longer reads the recorded bytes fails (2).
#
# Usage: check_checkpoint_fixture.sh CHAOS_BINARY SOURCE_DIR WORKDIR
set -u

if [ "$#" -ne 3 ]; then
  echo "usage: $0 CHAOS_BINARY SOURCE_DIR WORKDIR" >&2
  exit 2
fi
CHAOS="$1"
SOURCE="$2"
WORKDIR="$3"
DATA="$SOURCE/tests/chaos/data"
FLAGS=(--scenario "$SOURCE/configs/chaos_overload.json" --transient --traffic
       --stubs 800 --format json)

fail() { echo "FAIL: $*" >&2; exit 1; }

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR/write" "$WORKDIR/resume"

(cd "$WORKDIR/write" &&
 "$CHAOS" "${FLAGS[@]}" --checkpoint chaos_overload.ck --abort-after 2 > /dev/null)
rc=$?
[ "$rc" -eq 137 ] || fail "killed run exited $rc, expected 137"
for f in chaos_overload.ck chaos_overload.ck.g1 chaos_overload.ck.g2; do
  cmp -s "$WORKDIR/write/$f" "$DATA/$f" || fail "$f differs from the recorded generation"
done

cp "$DATA"/chaos_overload.ck* "$WORKDIR/resume/"
(cd "$WORKDIR/resume" &&
 "$CHAOS" "${FLAGS[@]}" --checkpoint chaos_overload.ck --resume > report.json) ||
  fail "resume from the recorded chain failed"
cmp -s "$WORKDIR/resume/report.json" "$DATA/chaos_overload.report.json" ||
  fail "resumed report differs from the recorded report"

echo "OK: checkpoint bytes and resumed report match the recorded fixture"
