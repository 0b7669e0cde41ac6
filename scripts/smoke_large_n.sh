#!/usr/bin/env bash
# Large-n engine smoke (registered as the ctest `smoke_large_n`, label
# `slow`; CI runs it in the nightly lane): one n = 2^17 (131072) hypercube
# relay cell under the flood-probe transport protocol with abstract crypto —
# ~9M physical messages through the batched flood fast path.
#
# What it proves:
#   * the engine sustains a 10^5-node sparse cell inside a hard wall budget
#     (--budget-ms aborts the cell and the exit status reports it),
#   * the realized skew stays within the Theorem-17-style effective bound
#     (--gate=1.0: probe's predicted skew is u_eff at gate ratio 1.0),
#   * the run is live and completes its rounds (gate trips on dead cells),
#   * its peak resident set stays under a ceiling, so a regression in the
#     per-flood delivery state (or any other per-node structure) shows up
#     at large n as memory, not only as time.
#
# Usage: smoke_large_n.sh <path-to-sweep_cli> <workdir> [<rss-ceiling-mb>]
#
# The ceiling defaults to 180 MB. Basis: this cell peaks at about 135 MB
# with dense per-flood delivery tables and at about 233 MB with the per-node
# hash tables they replaced (Release build, x86-64, GCC 12, glibc malloc).
# 180 MB leaves a third of headroom over the former for other toolchains and
# allocators, and trips well before the latter. A ceiling of 0 only reports
# the peak (sanitizer builds, whose shadow memory inflates it).
set -euo pipefail

CLI=$1
DIR=$2
RSS_CEILING_MB=${3:-180}

rm -rf "$DIR"
mkdir -p "$DIR"

# Split delays: every forward coalesces into two aggregate events (low-id /
# high-id neighbor runs), the representative shape for the batched path.
# The python3 wrapper records the child's peak RSS (ru_maxrss, KiB on Linux).
python3 - "$DIR/peak_rss_kib" "$CLI" \
       --world=relay --topology=hypercube --protocols=probe \
       --crypto=abstract --n=131072 --faults=0 --delay=split \
       --rounds=4 --warmup=1 --gate=1.0 --budget-ms=120000 \
       --format=csv --out="$DIR/large_n.csv" <<'PY'
import resource, subprocess, sys
status = subprocess.call(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    out.write(f"{resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}\n")
sys.exit(status)
PY

# Belt and braces over the exit status: the cell must have actually run at
# scale, not degenerated to an infeasible/empty row. The column is resolved
# by header name so schema growth never silently reads a different field.
messages=$(awk -F, '
  NR==1 { for (i=1; i<=NF; i++) if ($i == "messages") c=i; next }
  /n=131072/ { print $c; exit }
' "$DIR/large_n.csv")
if [ "$messages" -lt 1000000 ]; then
  echo "ERROR: large-n cell moved only $messages messages" >&2
  exit 1
fi

peak_mb=$(( $(cat "$DIR/peak_rss_kib") / 1024 ))
echo "smoke_large_n: peak RSS ${peak_mb} MB (ceiling ${RSS_CEILING_MB} MB)"
if [ "$RSS_CEILING_MB" -gt 0 ] && [ "$peak_mb" -gt "$RSS_CEILING_MB" ]; then
  echo "ERROR: large-n cell peaked at ${peak_mb} MB, over ${RSS_CEILING_MB} MB" >&2
  exit 1
fi

echo "smoke_large_n: OK ($messages physical messages, ${peak_mb} MB peak)"
