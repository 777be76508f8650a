#!/usr/bin/env python3
"""CI perf gate for the DES core.

Every gated quantity is a *same-run ratio*: bench/micro_simcore measures a
target and its reference implementation in the same binary on the same
machine, so the ratio transfers across runners while absolute throughput
does not. The baseline's `gates` list names target/reference prefix pairs;
for every target/arg point the same-run speedup must stay above that gate's
min_speedup.

Gates in the baseline today:
  * event_core — the optimized event queue (BM_EventQueueThroughput) vs the
    pre-optimization core compiled in as BM_EventQueueThroughputLegacy.
  * rack_sharded_parallel_vs_serial — the rack-scale sharded KV, one full
    per-server stack per domain, on the parallel DES core
    (BM_RackShardedParallel) vs the same workload on one event core
    (BM_RackShardedSerial). This gate carries min_cores: a runner without
    enough CPUs cannot show a parallel speedup, so the gate is skipped
    (loudly) there instead of failing on scheduler noise.
  * shard_lookup — the rack's jump-indexed HashRing search
    (BM_HashRingLookup) vs the lower_bound search it replaced, compiled
    into the bench (BM_HashRingLookupReference).

Absolute numbers vs the recorded dev-machine baseline are reported for
information only — they never fail the build.

Usage:
  build/bench/micro_simcore --benchmark_out=fresh.json \
      --benchmark_out_format=json --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=true
  scripts/check_bench.py --baseline BENCH_simcore.json --fresh fresh.json
"""
import argparse
import json
import sys


def load_fresh(path):
    """Returns ({benchmark_name: items_per_second}, num_cpus) from a
    google-benchmark JSON export, preferring the _median aggregate when
    repetitions were requested."""
    with open(path) as f:
        doc = json.load(f)
    plain = {}
    median = {}
    for run in doc.get("benchmarks", []):
        ips = run.get("items_per_second")
        if ips is None:
            continue
        name = run["name"]
        if name.endswith("_median"):
            median[name[: -len("_median")]] = ips
        elif run.get("run_type", "iteration") == "iteration":
            plain[name] = ips
    num_cpus = int(doc.get("context", {}).get("num_cpus", 0))
    return {**plain, **median}, num_cpus


def check_gate(gate, fresh, num_cpus, min_speedup_override):
    """Runs one same-run-ratio gate.

    Returns a summary dict for the per-gate table:
      {name, min_speedup, points, worst, status, failures}
    where status is one of 'ok', 'SKIPPED (cores)', 'FAILED' and worst is
    the lowest speedup among the gated points (None when nothing ran).
    """
    label = gate.get("name", gate["target_prefix"])
    min_speedup = min_speedup_override
    if min_speedup is None:
        min_speedup = float(gate["min_speedup"])
    target_prefix = gate["target_prefix"]
    reference_prefix = gate["reference_prefix"]
    summary = {"name": label, "min_speedup": min_speedup, "points": 0,
               "worst": None, "status": "ok", "failures": []}

    min_cores = int(gate.get("min_cores", 0))
    if min_cores and num_cpus and num_cpus < min_cores:
        print(f"[skip ] gate '{label}': needs >= {min_cores} CPUs, "
              f"runner has {num_cpus} — a parallel speedup cannot show "
              f"here; not gated on this runner")
        summary["status"] = "SKIPPED (cores)"
        return summary

    for name, ips in sorted(fresh.items()):
        # target_prefix may be a prefix of reference_prefix (the event-core
        # pair), so exclude the reference benchmarks from the target set.
        if not name.startswith(target_prefix) or \
                name.startswith(reference_prefix):
            continue
        arg = name[len(target_prefix):]  # e.g. "/1000" or "/8/real_time"
        ref_name = reference_prefix + arg
        if ref_name not in fresh:
            summary["failures"].append(
                f"{name}: reference {ref_name} missing from run")
            continue
        speedup = ips / fresh[ref_name]
        if summary["worst"] is None or speedup < summary["worst"]:
            summary["worst"] = speedup
        status = "ok"
        if speedup < min_speedup:
            status = "REGRESSION"
            summary["failures"].append(
                f"{name}: {speedup:.2f}x over {ref_name}, gate '{label}' "
                f"requires >= {min_speedup:.2f}x (target {ips:,.0f} vs "
                f"reference {fresh[ref_name]:,.0f} items/s)")
        summary["points"] += 1
        print(f"[gated] {name}: {speedup:.2f}x over {ref_name} "
              f"(need >= {min_speedup:.2f}x) {status}")
    if summary["points"] == 0:
        summary["failures"].append(
            f"gate '{label}': no '{target_prefix}*' benchmarks in fresh run")
    if summary["failures"]:
        summary["status"] = "FAILED"
    return summary


def print_gate_table(summaries):
    """One row per gate: what was required, what was measured, the verdict.
    This is the part of the log a human reads first, so it is aligned and
    complete even when a gate skipped or found no benchmarks."""
    rows = [("gate", "points", "min_speedup", "worst", "status")]
    for s in summaries:
        worst = f"{s['worst']:.2f}x" if s["worst"] is not None else "-"
        rows.append((s["name"], str(s["points"]),
                     f"{s['min_speedup']:.2f}x", worst, s["status"]))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    print("\nper-gate summary:")
    for i, row in enumerate(rows):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_simcore.json")
    parser.add_argument("--fresh", required=True,
                        help="google-benchmark JSON from a fresh run")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="min allowed target/reference ratio for every "
                             "gate (default: each gate's min_speedup)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    gates = baseline["gates"]

    fresh, num_cpus = load_fresh(args.fresh)

    summaries = [check_gate(g, fresh, num_cpus, args.min_speedup)
                 for g in gates]
    failures = [f for s in summaries for f in s["failures"]]
    checked = sum(s["points"] for s in summaries)
    skipped = sum(1 for s in summaries if s["status"] == "SKIPPED (cores)")

    # Informational: absolute numbers vs the recorded dev-machine baseline.
    # Hosted-runner hardware is unrelated to the machine that recorded the
    # baseline, so these differences are context, not pass/fail signal.
    for name, record in sorted(baseline.get("recorded", {}).items()):
        if name not in fresh:
            continue
        ref = float(record["after"])
        got = fresh[name]
        print(f"[info ] {name}: fresh {got:,.0f} / recorded {ref:,.0f} "
              f"items/s ({got / ref:.2f}x of dev-machine baseline)")

    print_gate_table(summaries)

    if checked == 0 and skipped == 0:
        print("error: no gate checked any benchmark", file=sys.stderr)
        return 2
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed ({checked} point(s) gated, "
          f"{skipped} gate(s) skipped for core count)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
