#!/usr/bin/env python3
"""Alternating-pair comparison of two builds of the benchmark.

Runs two already-built ``foodmatch-benchmark`` binaries, a parent and a
change, on each workload named by ``--workload`` (given once or more) and one
seed, ``--pairs`` times each, alternating which side runs first, each run as
long as ``BENCHMARK.json``'s ``run_seconds``. On a workload, every run must
print the same ``digest`` lines and the same ``failed`` count as every other,
or its metrics are not compared.

Per end-to-end metric of ``BENCHMARK.json`` (read, never written; the one
at the root of the repository this script lives in) it prints
the parent's median and quartile spread (Q3 - Q1, the quartiles as
``statistics.quantiles(n=4)`` gives them), the change's median, the change in
percent, the pairs the change won (ties count for neither side) and a verdict:

* ``ok`` -- the change's median is no worse than the parent's by more than
  the metric's bound, a share of the parent's median;
* ``WORSE`` -- it is worse by more than the bound;
* ``unresolved`` -- the parent's own spread, as a share of its median, is
  wider than the bound, and not every run of the change reads better than
  every run of the parent.

Workloads run one after another, each printing its own table. With more
than one, the output ends with one verdict line per workload: ``ok``,
``WORSE`` (naming the metrics) or ``DIGESTS`` (a digest or ``failed``
mismatch). Exits 1 on a digest or ``failed`` mismatch or on any ``WORSE``
metric, on any workload.

Usage:
    ab_pairs.py PARENT_BIN CHANGE_BIN --workload city_peak [--workload metro_single ...]
                [--seed 1] [--pairs 10]

Build each side once with its own target directory, e.g.
``CARGO_TARGET_DIR=/tmp/parent cargo build --release --offline
--manifest-path benchmark/Cargo.toml`` in a checkout of each commit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def run(binary, workload, args, seconds):
    """One untraced run: its digest lines, its ``failed`` count and metrics."""
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as out:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", "0", "--out", out]
        done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{binary} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    digests = [line for line in lines if line.startswith("digest ")]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return digests, result["failed"], metrics


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric, parent, change):
    """``ok``, ``WORSE`` or ``unresolved``, as the module docstring says."""
    higher = metric["better"] == "higher"
    base = statistics.median(parent)
    scale = abs(base) or 1.0
    spread = quartile_spread(parent) / scale
    if higher:
        all_better = min(change) > max(parent)
        worse_by = (base - statistics.median(change)) / scale
    else:
        all_better = max(change) < min(parent)
        worse_by = (statistics.median(change) - base) / scale
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "WORSE" if worse_by > metric["bound"] else "ok"


def compare(workload, args, end_to_end, seconds):
    """Runs and reports one workload: its verdict, ``ok``, ``WORSE: <metrics>``
    or ``DIGESTS``. On a mismatch a lone workload exits 1 with it, as the
    script always has; one of several prints it and the others run on."""
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), workload, args, seconds))
        ops = runs["change"][-1][2].get("orders_per_sec", float("nan"))
        base = runs["parent"][-1][2].get("orders_per_sec", float("nan"))
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): "
              f"orders_per_sec {base:.1f} -> {ops:.1f}", flush=True)

    reference = runs["parent"][0]
    for side, side_runs in runs.items():
        for i, (digests, failed, _) in enumerate(side_runs):
            if digests != reference[0] or failed != reference[1]:
                mismatch = (f"{side} run {i + 1}: digests {digests} failed {failed} differ "
                            f"from parent run 1: {reference[0]} failed {reference[1]}")
                if len(args.workload) == 1:
                    sys.exit(mismatch)
                print(f"{workload}: {mismatch}")
                return "DIGESTS"
    print(f"{workload} seed {args.seed}: {2 * args.pairs} runs, digests and "
          f"failed ({reference[1]}) equal")

    header = ("metric", "parent", "IQR", "change", "delta %", "wins", "bound", "verdict")
    print("{:<18} {:>12} {:>10} {:>12} {:>8} {:>6} {:>6}  {}".format(*header))
    worse = []
    for metric in end_to_end:
        name = metric["name"]
        parent = [metrics[name] for _, _, metrics in runs["parent"]]
        change = [metrics[name] for _, _, metrics in runs["change"]]
        base, new = statistics.median(parent), statistics.median(change)
        delta = 100.0 * (new - base) / abs(base) if base else 0.0
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        result = verdict(metric, parent, change)
        if result == "WORSE":
            worse.append(name)
        print(f"{name:<18} {base:>12.4f} {quartile_spread(parent):>10.4f} {new:>12.4f} "
              f"{delta:>+8.2f} {wins:>3}/{args.pairs:<2} {metric['bound']:>6.2f}  {result}")
    return f"WORSE: {', '.join(worse)}" if worse else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's foodmatch-benchmark binary")
    parser.add_argument("change", help="the change's foodmatch-benchmark binary")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to compare on; give it once per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for a quartile spread")
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    verdicts = []
    for i, workload in enumerate(args.workload):
        if i > 0:
            print(flush=True)
        verdicts.append((workload, compare(workload, args, end_to_end, seconds)))
    if len(verdicts) > 1:
        print()
        for workload, result in verdicts:
            print(f"verdict {workload}: {result}")
    return 0 if all(result == "ok" for _, result in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
