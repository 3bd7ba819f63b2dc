#!/usr/bin/env bash
# Exit-code contract test for the vgscn and vgtrace CLIs.
#
# Both tools promise the same scheme — 0 success, 1 runtime error or
# invariant/diff failure, 2 usage, 3 I/O, 4 corrupt trace / invalid
# scenario — and CI scripts branch on those codes, so each one is pinned
# here against a concrete input that must keep producing it.
#
# usage: test_cli_exit_codes.sh <vgscn> <vgtrace> <scenario-data-dir>

set -u

if [ $# -ne 3 ]; then
  echo "usage: $0 <vgscn> <vgtrace> <scenario-data-dir>" >&2
  exit 2
fi

VGSCN=$1
VGTRACE=$2
SCN_DIR=$3

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT

fails=0

expect() {
  want=$1
  shift
  "$@" >"$TMP/out" 2>"$TMP/err"
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*" >&2
    sed 's/^/  stdout: /' "$TMP/out" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    fails=$((fails + 1))
  else
    echo "ok: exit $got: $*"
  fi
}

# --- vgscn ------------------------------------------------------------------

# 0: a checked-in port validates, a generated world round-trips, and the
# fuzzer's per-seed harness holds on seed 1.
expect 0 "$VGSCN" validate "$SCN_DIR/chaos-baseline.scn"
expect 0 "$VGSCN" gen 1 "$TMP/gen.scn"
expect 0 "$VGSCN" validate "$TMP/gen.scn"
expect 0 "$VGSCN" run --seed 1
expect 0 "$VGSCN" list

# 1: a syntactically valid scenario whose only fault window opens long after
# the horizon — the plan is non-empty but injects nothing, which the
# invariant harness must flag.
sed 's/^link = .*/link = wan flap 1e+03 10/' \
  "$SCN_DIR/chaos-wan-flap-long.scn" >"$TMP/no-inject.scn"
expect 0 "$VGSCN" validate "$TMP/no-inject.scn"
expect 1 "$VGSCN" run "$TMP/no-inject.scn"

# --- vgscn fleet: the population runner shares the scheme -------------------

# 0: a scripted scenario with a [population] runs, with and without the
# serial/sharded parity check.
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[population]\nhomes = 4\ncommand_jitter_s = 1\nattack_flip = 0.2\n'
} >"$TMP/pop.scn"
expect 0 "$VGSCN" validate "$TMP/pop.scn"
expect 0 "$VGSCN" fleet "$TMP/pop.scn"
expect 0 "$VGSCN" fleet "$TMP/pop.scn" --shards 2 --check
expect 0 "$VGSCN" fleet "$SCN_DIR/chaos-baseline.scn" --homes 2
# --workers sizes the pool; it accepts 0 (= the core count) and must not
# perturb results.
expect 0 "$VGSCN" fleet "$TMP/pop.scn" --workers 1 --check
expect 0 "$VGSCN" fleet "$TMP/pop.scn" --workers 0

# 1: a fleet whose fault plan never fires (same past-the-horizon trick as
# no-inject.scn above) violates the fleet invariants.
{ cat "$TMP/no-inject.scn"
  printf '\n[population]\nhomes = 2\n'
} >"$TMP/no-inject-pop.scn"
expect 1 "$VGSCN" fleet "$TMP/no-inject-pop.scn"

# --- vgscn fleet --fault-plan: named orchestration plans --------------------

# 0: a named plan orchestrates the population, every home recovers, and
# serial/sharded parity holds; --region-report adds the per-region table.
expect 0 "$VGSCN" fleet "$TMP/pop.scn" --shards 2 \
  --fault-plan cloud-capacity-crunch --region-report --check
expect 0 "$VGSCN" fleet "$TMP/pop.scn" --fault-plan correlated-storm

# 2: an unknown plan name (or a missing value) is a usage error.
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --fault-plan nope
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --fault-plan

# 4: a plan whose cloud-capacity envelope collides with the scenario's own
# [faults] cloud window is rejected before any home is built.
{ sed 's/^cloud = .*/cloud = 3e+01 35 rst/' \
    "$SCN_DIR/chaos-cloud-outage.scn"
  printf '\n[population]\nhomes = 4\n'
} >"$TMP/pop-collide.scn"
expect 4 "$VGSCN" fleet "$TMP/pop-collide.scn" --fault-plan cloud-capacity-crunch

# 4: more regions than homes guarantees zero-home regions — rejected.
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[population]\nhomes = 2\n'
} >"$TMP/pop-tiny.scn"
expect 4 "$VGSCN" fleet "$TMP/pop-tiny.scn" --fault-plan regional-fcm-outage

# --homes sets the population the run uses, and the plan's regions are checked
# against it: 8 homes take the 4 regions the file's 2 homes cannot, and run
# exactly as a file that declares 8 homes...
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[population]\nhomes = 8\n'
} >"$TMP/pop-8.scn"
expect 0 "$VGSCN" fleet "$TMP/pop-tiny.scn" --homes 8 \
  --fault-plan regional-fcm-outage --check
cp "$TMP/out" "$TMP/homes-flag.out"
expect 0 "$VGSCN" fleet "$TMP/pop-8.scn" --fault-plan regional-fcm-outage --check
if ! cmp -s "$TMP/homes-flag.out" "$TMP/out"; then
  echo "FAIL: --homes 8 and [population] homes = 8 print different runs" >&2
  diff "$TMP/homes-flag.out" "$TMP/out" >&2
  fails=$((fails + 1))
fi
# ...while 2 homes of a 4-home file cannot hold 4 regions: rejected before
# the fleet line is printed.
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[population]\nhomes = 4\n'
} >"$TMP/pop-4.scn"
expect 4 "$VGSCN" fleet "$TMP/pop-4.scn" --homes 2 \
  --fault-plan regional-fcm-outage
if grep -q '^fleet:' "$TMP/out"; then
  echo "FAIL: the rejected --homes 2 run printed its fleet line" >&2
  fails=$((fails + 1))
fi

# 2: usage errors.
expect 2 "$VGSCN"
expect 2 "$VGSCN" frobnicate
expect 2 "$VGSCN" run --seed
expect 2 "$VGSCN" gen not-a-number
expect 2 "$VGSCN" fleet
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --homes 0
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --homes 4000001
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --shards 0
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --frobnicate
# --resident is not an option: each shard runs one home at a time.
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --resident 2
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --workers
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --workers many
expect 2 "$VGSCN" fleet "$TMP/pop.scn" --workers 5000

# 3: fleet I/O errors share the loader's code.
expect 3 "$VGSCN" fleet "$TMP/does-not-exist.scn"

# 4: a [population] on a capture-loop scenario is a validation error.
printf '[scenario]\nname = x\n[schedule]\ncommands = 4\n[population]\nhomes = 3\n' \
  >"$TMP/pop-on-capture.scn"
expect 4 "$VGSCN" fleet "$TMP/pop-on-capture.scn"

# 3: I/O errors.
expect 3 "$VGSCN" validate "$TMP/does-not-exist.scn"

# 4: parse/validation errors.
printf '[]\n' >"$TMP/malformed.scn"
expect 4 "$VGSCN" validate "$TMP/malformed.scn"
printf '[scenario]\nname = x\nkind = home\nspeaker = warp_drive\n' \
  >"$TMP/bad-value.scn"
expect 4 "$VGSCN" validate "$TMP/bad-value.scn"
# A capture time past the 2^62 ns trace time cap (the ms -> ns conversion
# would overflow at run time).
printf '[scenario]\nname = x\nkind = synthetic\n[capture]\n%s\n%s\n' \
  'flow = tcp 50001 10.0.0.1 443 0' 'spike = 0 9223372036854 500' \
  >"$TMP/past-cap.scn"
expect 4 "$VGSCN" validate "$TMP/past-cap.scn"
# Fault and schedule times past the same cap: each number is checked before
# it becomes int64 nanoseconds (1e10 s would be 1e19 ns), and a fault window
# must end by the cap (4e9 + 4e9 s is past it without overflowing int64).
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[faults]\nlink = lan flap 9e9 9e9\nlink = lan flap 9.1e9 9e9\n'
} >"$TMP/flap-past-cap.scn"
expect 4 "$VGSCN" validate "$TMP/flap-past-cap.scn"
{ cat "$SCN_DIR/chaos-baseline.scn"
  printf '\n[faults]\nlink = lan flap 4e9 4e9\n'
} >"$TMP/window-past-cap.scn"
expect 4 "$VGSCN" validate "$TMP/window-past-cap.scn"
sed 's/^drain_s = .*/drain_s = 1e10/' "$SCN_DIR/chaos-baseline.scn" \
  >"$TMP/drain-past-cap.scn"
expect 4 "$VGSCN" validate "$TMP/drain-past-cap.scn"
if ! grep -qF "drain_s '1e10' is past the 2^62 ns time cap" "$TMP/err"; then
  echo "FAIL: drain_s = 1e10 is not named as past the time cap" >&2
  sed 's/^/  stderr: /' "$TMP/err" >&2
  fails=$((fails + 1))
fi

# --- vgtrace ----------------------------------------------------------------

# 0: record two scenarios, replay one, diff a trace against itself.
expect 0 "$VGTRACE" record fallback_patterns "$TMP/a.vgt"
expect 0 "$VGTRACE" record echo_dot_tcp "$TMP/b.vgt"
expect 0 "$VGTRACE" replay "$TMP/a.vgt"
expect 0 "$VGTRACE" diff "$TMP/a.vgt" "$TMP/a.vgt"

# 1: different scenarios yield different traces.
expect 1 "$VGTRACE" diff "$TMP/a.vgt" "$TMP/b.vgt"

# 2: usage errors.
expect 2 "$VGTRACE"
expect 2 "$VGTRACE" diff "$TMP/a.vgt"

# 3: I/O errors — a missing trace, and directory mode over a directory that
# contains no *.vgt at all.
expect 3 "$VGTRACE" replay "$TMP/missing.vgt"
mkdir "$TMP/empty-dir"
expect 3 "$VGTRACE" replay "$TMP/empty-dir"
expect 3 "$VGTRACE" stats "$TMP/empty-dir"

# 4: corrupt trace.
printf 'this is not a vgt trace\n' >"$TMP/corrupt.vgt"
expect 4 "$VGTRACE" replay "$TMP/corrupt.vgt"

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all exit-code cases hold"
