#!/usr/bin/env python3
"""CI guard on dispatch quality under disruptions.

Compares a fresh ``repro disruptions --bench-out`` JSON against the committed
``BENCH_disruptions.json`` and fails (exit 1) when any (policy, profile)
run's ``xdt_hours_per_day`` grew by more than the threshold, or when a
committed run is missing from the new file. XDT is a deterministic simulation
output — policy quality, not wall-clock — so the comparison is
hardware-independent and never skipped: a ``quick`` or ``seed`` mismatch
between the two files is a CI misconfiguration and fails too.

Performance numbers are not checked here; they live in ``benchmark/``.

Usage:
    check_bench_regression.py NEW_JSON BASELINE_JSON [--threshold 0.30]
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_disruptions(new, baseline, threshold):
    """Returns the labels of the runs whose XDT regressed or went missing."""

    def key(run):
        return (run["policy"], run["profile"])

    new_runs = {key(r): r for r in new["runs"]}
    failures = []
    for old in baseline["runs"]:
        policy, profile = key(old)
        run = new_runs.get((policy, profile))
        if run is None:
            print(f"{policy:<10} {profile:<15} MISSING from the new run")
            failures.append(f"{policy}/{profile} missing")
            continue
        old_xdt, new_xdt = float(old["xdt_hours_per_day"]), float(run["xdt_hours_per_day"])
        growth = (new_xdt - old_xdt) / old_xdt if old_xdt > 0 else 0.0
        status = "REGRESSION" if growth > threshold else "ok"
        print(
            f"{policy:<10} {profile:<15} baseline XDT {old_xdt:>8.3f} h/d  "
            f"now {new_xdt:>8.3f} h/d  ({growth:+.1%}) {status}"
        )
        if growth > threshold:
            failures.append(f"{policy}/{profile} XDT")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", help="freshly generated BENCH_disruptions JSON")
    parser.add_argument("baseline", help="committed BENCH_disruptions.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional XDT growth (default 0.30)",
    )
    args = parser.parse_args()

    new = load(args.new)
    baseline = load(args.baseline)

    mismatched = [k for k in ("quick", "seed") if new.get(k) != baseline.get(k)]
    if mismatched:
        for k in mismatched:
            print(f"FAIL: {k} differs (baseline {baseline.get(k)}, new {new.get(k)})")
        print("the two files must come from the same `repro disruptions` invocation flags")
        return 1

    failures = check_disruptions(new, baseline, args.threshold)
    if failures:
        print("FAIL: regressed beyond tolerance on: " + ", ".join(failures))
        return 1
    print("disruptions regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
