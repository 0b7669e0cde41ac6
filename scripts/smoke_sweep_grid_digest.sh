#!/usr/bin/env bash
# CI smoke pinning the grid that sweep_cli builds from its command line
# (registered as the ctest `smoke_sweep_grid_digest`, label `integration`).
# One invocation sets every axis flag — with the underscore and --delay
# aliases and --byz=split,st-accel — and the grid= token of its --history
# line must equal the pinned digest. That digest folds every expanded
# spec's key, in order, with the base seed, so any change to how a flag is
# read, an axis expands, or the st-accel cells are appended shows up here.
#
# Usage: smoke_sweep_grid_digest.sh <path-to-sweep_cli> <workdir>
set -euo pipefail

CLI=$1
DIR=$2

WANT_GRID=14904318743872962069
WANT_CELLS=2130

rm -rf "$DIR"
mkdir -p "$DIR"

"$CLI" --world=complete,relay,theorem5 --protocols=cps,st,gradient --n=4,8 \
  --topology=ring,hypercube --faults=0,max --vartheta=1.01 --u=0.05 \
  --u_tilde=0.1 --delay=random,custom:alternate --clocks=spread,nominal \
  --crypto=real,abstract --byz=split,st-accel --relay_fault=crash,search \
  --search-budget=2 --churn-rate=0,0.1 --join_batch=0,1 \
  --reconnect=random,ring-repair --kllo-stab=1,2 --rounds=3 --warmup=1 \
  --format=csv --out="$DIR/grid.csv" --history="$DIR/history.txt" \
  2>"$DIR/stderr.txt"

line=$(tail -n 1 "$DIR/history.txt")
grid=$(grep -o 'grid=[0-9]*' <<<"$line" | cut -d= -f2)
cells=$(grep -o 'cells=[0-9]*' <<<"$line" | cut -d= -f2)
if [[ "$grid" != "$WANT_GRID" || "$cells" != "$WANT_CELLS" ]]; then
  echo "FAIL: grid=$grid cells=$cells; want grid=$WANT_GRID cells=$WANT_CELLS"
  exit 1
fi
echo "smoke_sweep_grid_digest: OK (grid=$grid, $cells cells)"
