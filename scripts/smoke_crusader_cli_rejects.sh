#!/usr/bin/env bash
# CI smoke for crusader_cli's flag validation (registered as the ctest
# `smoke_crusader_cli_rejects`, label `integration`): malformed numbers,
# a negative count, unknown or unsupported enum spellings, and a topology
# size its family does not come in must each exit 2 with the first stderr
# line below, instead of aborting on an uncaught exception or running with a
# half-parsed or wrapped value. Valid runs on the complete graph and on a
# sparse ring must still exit 0, the ring one with the requested protocol.
#
# Usage: smoke_crusader_cli_rejects.sh <path-to-crusader_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

failures=0
expect_reject() {
  local want=$1
  shift
  local status=0
  "$CLI" "$@" >"$DIR/stdout.txt" 2>"$DIR/stderr.txt" || status=$?
  local got
  got=$(head -n 1 "$DIR/stderr.txt")
  if [[ $status -ne 2 || "$got" != "$want" ]]; then
    echo "FAIL $*: exit $status, stderr '$got'; want exit 2, '$want'"
    failures=$((failures + 1))
  fi
}

echo "== numeric flags parse strictly =="
expect_reject "error: bad value for --n: 'abc'" --n abc
expect_reject "error: bad value for --theta: '1.5x'" --theta 1.5x
expect_reject "error: bad value for --faulty: '-1'" --faulty -1 --n 7

echo "== enum flags take the shared runner spellings =="
expect_reject "error: bad value for --protocol: 'probe'" --protocol probe
expect_reject "error: bad value for --strategy: 'evil'" --strategy evil
expect_reject "error: bad value for --topology: 'torus'" --topology torus
expect_reject "error: no hypercube topology with n = 12" --topology hypercube \
  --n 12 --faulty 1

echo "== a valid run still exits 0 =="
status=0
"$CLI" --protocol st --n 7 --faulty 3 --strategy split --rounds 8 \
  >"$DIR/stdout.txt" 2>"$DIR/stderr.txt" || status=$?
if [[ $status -ne 0 ]]; then
  echo "FAIL valid run: exit $status"
  cat "$DIR/stderr.txt"
  failures=$((failures + 1))
fi

echo "== a sparse topology runs the requested protocol =="
status=0
"$CLI" --protocol st --topology ring --n 8 --faulty 1 --rounds 8 \
  >"$DIR/stdout.txt" 2>"$DIR/stderr.txt" || status=$?
if [[ $status -ne 0 ]] ||
  ! grep -q "Srikanth-Toueg over sparse topology 'ring'" "$DIR/stdout.txt"; then
  echo "FAIL st over ring: exit $status"
  cat "$DIR/stdout.txt" "$DIR/stderr.txt"
  failures=$((failures + 1))
fi

if [[ $failures -ne 0 ]]; then
  echo "smoke_crusader_cli_rejects: $failures check(s) failed"
  exit 1
fi
echo "smoke_crusader_cli_rejects: OK"
