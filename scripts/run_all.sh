#!/usr/bin/env bash
# Builds everything, runs the test suite, then regenerates every paper
# figure/table. Usage: scripts/run_all.sh [--csv] [--jobs=N]
#                                         [--sim-threads=N] [--faults=SPEC]
#
# --jobs=N fans the independent sweep points of each bench across N worker
# threads (default: all cores). --sim-threads=N sets the event cores inside
# each simulation of the multi-domain benches (rack_scale, sec_membership),
# which shard per-server domains across them; every other bench simulates
# one domain and is run without it. Output is byte-identical at any value
# of either flag: results are merged in submission order before anything is
# printed, and cross-domain events merge in (time, src, seq) order
# (DESIGN.md §12). The two compose multiplicatively — keep jobs×sim_threads
# near the core count.
#
# --faults=SPEC (see DESIGN.md §9 for the grammar) and --check are forwarded
# only to the benches that accept those flags; the rest run without them.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc)"
simthreads=""
faults=""
check=""
args=()
for a in "$@"; do
  case "$a" in
    --jobs=*) jobs="${a#--jobs=}" ;;
    --sim-threads=*) simthreads="$a" ;;
    --faults=*) faults="$a" ;;
    --check) check="$a" ;;
    *) args+=("$a") ;;
  esac
done

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b ====="
  case "$(basename "$b")" in
    micro_simcore)
      # google-benchmark binary: takes no sweep flags.
      "$b"
      ;;
    fig3_flow|fig4_latency|fig4_throughput|fig8_large_read|fig10_doorbell)
      # The fault-aware benches additionally take --faults.
      "$b" --jobs="$jobs" ${faults:+"$faults"} ${args[@]+"${args[@]}"}
      ;;
    fig12_governor|sec_overload|sec_tenants|sec_trace)
      # Fault-aware and self-checking: forward --faults and --check both.
      "$b" --jobs="$jobs" ${faults:+"$faults"} ${check:+"$check"} \
        ${args[@]+"${args[@]}"}
      ;;
    rack_scale)
      # Multi-domain, fault-aware and self-checking.
      "$b" --jobs="$jobs" ${simthreads:+"$simthreads"} ${faults:+"$faults"} \
        ${check:+"$check"} ${args[@]+"${args[@]}"}
      ;;
    sec_membership)
      # Self-checking; builds its own permloss/corrupt plans internally.
      "$b" --jobs="$jobs" ${simthreads:+"$simthreads"} \
        ${check:+"$check"} ${args[@]+"${args[@]}"}
      ;;
    *)
      "$b" --jobs="$jobs" ${args[@]+"${args[@]}"}
      ;;
  esac
  echo
done
