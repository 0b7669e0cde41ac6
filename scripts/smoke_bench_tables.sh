#!/usr/bin/env bash
# Golden check for the experiment tables (registered as the ctest
# `smoke_bench_tables`, label `integration`, when benches and tests are both
# built). Each bench below prints deterministic paper-style tables; its
# stdout must exit 0 and hash to the pinned SHA-256. A refactor of the
# protocols, the midpoint rule or the bench harness that moves any printed
# number shows up here. On a mismatch the bench's stdout is kept in the
# workdir for diffing against a build of the parent commit.
#
# Usage: smoke_bench_tables.sh <directory-with-bench-binaries> <workdir>
set -euo pipefail

BIN=$1
DIR=$2

declare -A WANT=(
  [bench_ablation]=059e7feac5c4402962da00ce7b8c2cf5e05179a6dba33cfb02ba4dedf21a8d7b
  [bench_apa_convergence]=ce6a20d68933bc5652ee3ccd19c57b1ca7f2ee84fa484948e5b4c40961100f23
  [bench_comparison]=aeb2e3cae191859f1226f1fb02226c6da5bc45f805b0a3f373a6e144871bae5a
  [bench_cps_skew]=89bdba779c4036eac337169667d56461b2336b2eaf7d1aeb1b44d57f2f976d80
  [bench_feasibility]=83faf60660dc9c6ad5b71345d1fa63a6ade0aed81641f6ee6ef6924191ee4fb3
  [bench_lower_bound]=db34075446eb97d88acf3b6b7a53bbfc471cf7bed0f49281a0ea195de75b4dce
  [bench_message_complexity]=6836949acd36698c7ea28e7c89085589bd642d52473cfaf91544e6fdb1bcfb9f
  [bench_period]=2621d4c3ec293edb43c6ff182f92c67ebc8186f02239aa8114af418d9e543d15
  [bench_resilience]=804a1769a27b100acecc1f4a14ead67882993152b1133e60a34a26e963d731ad
  [bench_sparse_network]=b2e2cac00876783bb30f5d51968deca1b6174b37be487b46e2d07b1df00eb13d
  [bench_tcb_accuracy]=22fc35c4f695dee314fcc14f0ba91310b33733f69aad784de1f308f9767a0a63
)

rm -rf "$DIR"
mkdir -p "$DIR"

failures=0
for bench in $(printf '%s\n' "${!WANT[@]}" | sort); do
  out="$DIR/$bench.txt"
  status=0
  "$BIN/$bench" >"$out" || status=$?
  got=$(sha256sum "$out" | cut -d' ' -f1)
  if [[ $status -ne 0 || "$got" != "${WANT[$bench]}" ]]; then
    echo "FAIL $bench: exit $status, sha256 $got; want exit 0, ${WANT[$bench]}"
    failures=$((failures + 1))
  fi
done

if [[ $failures -ne 0 ]]; then
  echo "smoke_bench_tables: $failures of ${#WANT[@]} tables changed (stdout in $DIR)"
  exit 1
fi
echo "smoke_bench_tables: OK (${#WANT[@]} tables)"
