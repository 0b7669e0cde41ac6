#!/usr/bin/env bash
# CI smoke for sweep_cli's flag validation (registered as the ctest
# `smoke_sweep_cli_rejects`, label `integration`): one malformed value for
# every list flag, the empty lists that must fail loudly, the strict
# numeric scalars, values outside the model (d, slack, vartheta, u and the
# gate thresholds), and a warmup that leaves no steady-state round. Each must
# exit 2 before any cell runs, with exactly the stderr line below.
# expect_reject takes the flags, then that line.
#
# Usage: smoke_sweep_cli_rejects.sh <path-to-sweep_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

rm -rf "$DIR"
mkdir -p "$DIR"

failures=0
expect_reject() {
  local want=${*: -1}
  local flags=("${@:1:$#-1}")
  local status=0
  "$CLI" "${flags[@]}" --rounds=1 >"$DIR/stdout.txt" 2>"$DIR/stderr.txt" ||
    status=$?
  local got
  got=$(cat "$DIR/stderr.txt")
  if [[ $status -ne 2 || "$got" != "$want" ]]; then
    echo "FAIL ${flags[*]}: exit $status, stderr '$got'; want exit 2, '$want'"
    failures=$((failures + 1))
  fi
}

echo "== enum-valued list flags reject unknown spellings =="
expect_reject --world=mars "sweep_cli: unknown world 'mars'"
expect_reject --protocols=paxos "sweep_cli: unknown protocol 'paxos'"
expect_reject --topology=torus "sweep_cli: unknown topology 'torus'"
expect_reject --relay-fault=lazy "sweep_cli: unknown relay fault 'lazy'"
expect_reject --delays=slow "sweep_cli: unknown delay policy 'slow'"
expect_reject --delays=custom:bogus "sweep_cli: bad custom delay 'custom:bogus' (want custom:fixed:<fraction in [0,1]>, custom:alternate, or custom:target:<node>)"
expect_reject --clocks=atomic "sweep_cli: unknown clock kind 'atomic'"
expect_reject --crypto=rsa "sweep_cli: unknown crypto mode 'rsa'"
expect_reject --byz=evil "sweep_cli: unknown byz strategy 'evil'"
expect_reject --reconnect=teleport "sweep_cli: unknown reconnect policy 'teleport'"

echo "== numeric list flags reject malformed and out-of-range values =="
expect_reject --n=0 "sweep_cli: --n takes cluster sizes >= 1, got '0'"
expect_reject --n=4294967296 "sweep_cli: --n takes cluster sizes >= 1, got '4294967296'"
expect_reject --n=abc "sweep_cli: bad numeric value for --n: 'abc'"
expect_reject --faults=-1 "sweep_cli: bad numeric value for --faults: '-1'"
expect_reject --faults=4294967296 "sweep_cli: --faults takes counts >= 0 or 'max', got '4294967296'"
expect_reject --vartheta=x "sweep_cli: bad numeric value for --vartheta: 'x'"
expect_reject --u=x "sweep_cli: bad numeric value for --u: 'x'"
expect_reject --u-tilde=x "sweep_cli: bad numeric value for --u-tilde: 'x'"
expect_reject --churn-rate=2 "sweep_cli: --churn-rate takes rates in [0,1], got '2'"
expect_reject --join-batch=-1 "sweep_cli: bad numeric value for --join-batch: '-1'"
expect_reject --kllo-stab=0 "sweep_cli: --kllo-stab takes multipliers > 0, got '0'"
expect_reject --search-budget=0 "sweep_cli: --search-budget takes counts >= 1, got '0'"
expect_reject --join-batch=4294967296 "sweep_cli: --join-batch takes counts >= 0, got '4294967296'"
# The model needs vartheta > 1 and 0 <= u < d/2 (the echo guard d - 2u > 0):
# a value outside would error every row that reads it instead of failing
# the invocation.
expect_reject --vartheta=1 "sweep_cli: --vartheta takes drift bounds > 1, got '1'"
expect_reject --vartheta=0.5 "sweep_cli: --vartheta takes drift bounds > 1, got '0.5'"
expect_reject --u=-1 "sweep_cli: --u takes uncertainties >= 0, got '-1'"
# u < d/2 is checked after every flag is read, so --d may come after --u.
# (--warmup=0 keeps the appended --rounds=1 from failing the warmup check
# first.)
expect_reject --warmup=0 --u=2 "sweep_cli: --u takes uncertainties < --d/2 (0.5), got '2'"
expect_reject --warmup=0 --u=0.5 "sweep_cli: --u takes uncertainties < --d/2 (0.5), got '0.5'"
expect_reject --warmup=0 --u=0.01,0.3 --d=0.5 \
  "sweep_cli: --u takes uncertainties < --d/2 (0.25), got '0.3'"

echo "== underscore aliases: parse errors echo the alias, range errors the dash flag =="
expect_reject --churn_rate=x "sweep_cli: bad numeric value for --churn_rate: 'x'"
expect_reject --churn_rate=2 "sweep_cli: --churn-rate takes rates in [0,1], got '2'"
expect_reject --u_tilde=x "sweep_cli: bad numeric value for --u_tilde: 'x'"
expect_reject --search_budget= "sweep_cli: --search-budget needs at least one value"

echo "== empty lists fail loudly instead of dropping grid points =="
expect_reject --relay-fault= "sweep_cli: --relay-fault needs at least one value"
expect_reject --crypto= "sweep_cli: --crypto needs at least one value"
expect_reject --reconnect= "sweep_cli: --reconnect needs at least one value"
expect_reject --delays= "sweep_cli: --delays needs at least one value"
expect_reject --churn-rate= "sweep_cli: --churn-rate needs at least one value"
expect_reject --join-batch= "sweep_cli: --join-batch needs at least one value"
expect_reject --kllo-stab= "sweep_cli: --kllo-stab needs at least one value"
expect_reject --search-budget= "sweep_cli: --search-budget needs at least one value"
expect_reject --n= "sweep_cli: --n needs at least one value"
expect_reject --world= "sweep_cli: --world needs at least one value"
expect_reject --protocols= "sweep_cli: --protocols needs at least one value"
expect_reject --clocks= "sweep_cli: --clocks needs at least one value"
expect_reject --byz= "sweep_cli: --byz needs at least one value"
# An axis only some of the worlds read must fail on an empty list too, not
# drop just those worlds' cells and let the gate pass on the rest.
expect_reject --world=complete,relay --topology= --n=8 --faults=0 --gate=1.0 \
  "sweep_cli: --topology needs at least one value"
expect_reject --world=complete,theorem5 --clocks= \
  "sweep_cli: --clocks needs at least one value"

echo "== scalars parse strictly =="
expect_reject --gate=1.0x "sweep_cli: bad numeric value for --gate: '1.0x'"
# Scalars outside the model fail the invocation instead of erroring every
# row; a gate threshold of 0 stays legal.
expect_reject --d=0 "sweep_cli: --d takes a delay > 0, got '0'"
expect_reject --d=-1 "sweep_cli: --d takes a delay > 0, got '-1'"
expect_reject --slack=0.5 "sweep_cli: --slack takes a factor >= 1, got '0.5'"
expect_reject --gate=-1 "sweep_cli: --gate takes a ratio >= 0, got '-1'"
expect_reject --gate-local=-1 "sweep_cli: --gate-local takes a ratio >= 0, got '-1'"
expect_reject --gate_local=-1 "sweep_cli: --gate-local takes a ratio >= 0, got '-1'"
expect_reject --gate-kllo=-0.5 "sweep_cli: --gate-kllo takes a ratio >= 0, got '-0.5'"
# max_rounds = 0 means "no cap" inside the protocols, so a zero round count
# would run the horizon's rounds and report them under rounds=0.
expect_reject --rounds=0 "sweep_cli: --rounds takes a count >= 1, got '0'"
# Steady-state statistics read rounds [warmup, rounds): with the default
# warmup of 5 and the --rounds=1 appended above, no round would be left and
# steady_skew, skew_p50 and skew_p99 would be blank on every row.
expect_reject --protocols=cps --n=4 --faults=0 \
  "sweep_cli: --warmup takes a count < --rounds (1), got '5'"

if [[ $failures -ne 0 ]]; then
  echo "smoke_sweep_cli_rejects: $failures check(s) failed"
  exit 1
fi
echo "smoke_sweep_cli_rejects: OK"
