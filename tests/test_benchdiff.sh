#!/usr/bin/env bash
# Contract test for tools/benchdiff, the CI bench gate: an identical harvest
# passes, a changed deterministic counter fails, a line whose run shape has
# no baseline fails, naming the shape, and a bench with baseline lines of
# several shapes compares each fresh line with the one of its own shape.
#
# usage: test_benchdiff.sh <benchdiff> <baseline.jsonl>

set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <benchdiff> <baseline.jsonl>" >&2
  exit 2
fi

BENCHDIFF=$1
BASELINE=$2

TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT

fails=0

# expect <exit code> <output substring> <fresh.jsonl>
expect() {
  want=$1
  needle=$2
  fresh=$3
  python3 "$BENCHDIFF" "$BASELINE" "$fresh" >"$TMP/out" 2>&1
  got=$?
  if [ "$got" -ne "$want" ] || ! grep -qF -- "$needle" "$TMP/out"; then
    echo "FAIL: exit $got (want $want), output must contain '$needle'" >&2
    sed 's/^/  /' "$TMP/out" >&2
    fails=$((fails + 1))
  else
    echo "ok: exit $got: $needle"
  fi
}

# 0: the baseline against itself.
expect 0 "no guarded regressions" "$BASELINE"

# 0: a field outside the shape and the counters may differ.
sed 's/"workers":1,"serial_seconds"/"workers":4,"serial_seconds"/' \
  "$BASELINE" >"$TMP/workers.jsonl"
expect 0 "no guarded regressions" "$TMP/workers.jsonl"

# 1: one Table I counter moved.
sed 's/"spike_events":262/"spike_events":263/' "$BASELINE" >"$TMP/table1.jsonl"
expect 1 "table1_recognition.spike_events: 262 -> 263" "$TMP/table1.jsonl"

# 1: the simulator executed one more event.
sed 's/"events":2575509/"events":2575510/' "$BASELINE" >"$TMP/events.jsonl"
expect 1 "throughput.events: 2575509 -> 2575510" "$TMP/events.jsonl"

# 1: a different run shape: a 1-day run's counters are not comparable.
sed 's/"trials":12,"days":7/"trials":12,"days":1/' "$BASELINE" \
  >"$TMP/shape.jsonl"
expect 1 "throughput.days: run shape 7 -> 1" "$TMP/shape.jsonl"

# 1: the fleet chaos run orchestrated one more fault.
sed 's/"orchestrated_faults":28003/"orchestrated_faults":28004/' "$BASELINE" \
  >"$TMP/orchestrated.jsonl"
expect 1 "fleet_chaos.orchestrated_faults: 28003 -> 28004" \
  "$TMP/orchestrated.jsonl"

# 1: a fleet chaos run over half the homes is another run shape.
sed '/"bench":"fleet_chaos"/s/"homes":10000,/"homes":5000,/' "$BASELINE" \
  >"$TMP/chaos-shape.jsonl"
expect 1 "fleet_chaos.homes: run shape 10000 -> 5000" "$TMP/chaos-shape.jsonl"

# 1: the sharded replay decoded one record fewer.
sed 's/"records":1967,/"records":1966,/' "$BASELINE" >"$TMP/records.jsonl"
expect 1 "replay_sharded.records: 1967 -> 1966" "$TMP/records.jsonl"

# 1: a sharded replay over another directory is another run shape.
sed 's|"dir":"tests/data",|"dir":"tests/data/scenarios",|' "$BASELINE" \
  >"$TMP/dir-shape.jsonl"
expect 1 "replay_sharded.dir: run shape 'tests/data' -> 'tests/data/scenarios'" \
  "$TMP/dir-shape.jsonl"

# 1: the 50k-home fleet run executed one more event.
sed 's/"events":43991917,/"events":43991918,/' "$BASELINE" \
  >"$TMP/fleet-events.jsonl"
expect 1 "fleet.events: 43991917 -> 43991918" "$TMP/fleet-events.jsonl"

# 1: a fleet run over 20k homes has no baseline of its shape.
sed '/"bench":"fleet",/s/"homes":50000,/"homes":20000,/' "$BASELINE" \
  >"$TMP/fleet-shape.jsonl"
expect 1 "fleet (homes=20000, shards=8): no baseline of this run shape" \
  "$TMP/fleet-shape.jsonl"

# Two shapes of one bench: each fresh fleet line meets the baseline line of
# its own shape, so the 250k run's extra event fails while the 50k run's
# counter still matches.
grep -F -e '"homes":50000,' -e '"homes":250000,' "$BASELINE" \
  | grep -F '"bench":"fleet",' \
  | sed 's/"events":219689044,/"events":219689045,/' >"$TMP/fleet-two.jsonl"
expect 1 "fleet.events: 219689044 -> 219689045" "$TMP/fleet-two.jsonl"
expect 1 "[exact  ] fleet.events: 43991917" "$TMP/fleet-two.jsonl"

if [ "$fails" -ne 0 ]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all benchdiff cases hold"
