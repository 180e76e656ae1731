#!/usr/bin/env python3
"""CI guard on dispatch quality under disruptions.

Compares the ``disruptions`` rows of a fresh ``repro --ledger-out`` ledger
against the committed ``BENCH_disruptions.json`` ledger and fails (exit 1)
when any run's ``xdt_hours_per_day`` grew by more than the threshold, when a
committed run is missing from the new ledger, or when the baseline holds no
XDT row at all. A run is keyed by (seed, city, series), the series being
``policy/profile``. XDT is a deterministic simulation output — policy
quality, not wall-clock — so the comparison is hardware-independent and
never skipped: a ``quick`` or ``seeds`` mismatch between the two ledgers is
a CI misconfiguration and fails too.

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


def xdt_rows(ledger):
    """The disruptions experiment's XDT per (seed, city, series)."""
    return {
        (row["seed"], row["city"], row["series"]): float(row["value"])
        for row in ledger["rows"]
        if row["experiment"] == "disruptions" and row["metric"] == "xdt_hours_per_day"
    }


def check_disruptions(new, baseline, threshold):
    """Returns the labels of the runs whose XDT regressed or went missing."""
    new_runs = xdt_rows(new)
    old_runs = xdt_rows(baseline)
    if not old_runs:
        print("the baseline holds no disruptions XDT row")
        return ["baseline empty"]
    failures = []
    for (seed, city, series), old_xdt in old_runs.items():
        label = f"seed {seed} {city} {series}"
        new_xdt = new_runs.get((seed, city, series))
        if new_xdt is None:
            print(f"{label:<40} MISSING from the new run")
            failures.append(f"{label} missing")
            continue
        growth = (new_xdt - old_xdt) / old_xdt if old_xdt > 0 else 0.0
        status = "REGRESSION" if growth > threshold else "ok"
        print(
            f"{label:<40} baseline XDT {old_xdt:>8.3f} h/d  "
            f"now {new_xdt:>8.3f} h/d  ({growth:+.1%}) {status}"
        )
        if growth > threshold:
            failures.append(f"{label} XDT")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", help="freshly generated ledger (repro --ledger-out)")
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

    mismatched = [k for k in ("quick", "seeds") if new.get(k) != baseline.get(k)]
    if mismatched:
        for k in mismatched:
            print(f"FAIL: {k} differs (baseline {baseline.get(k)}, new {new.get(k)})")
        print("the two ledgers must come from the same `repro` --quick/--seed flags")
        return 1

    failures = check_disruptions(new, baseline, args.threshold)
    if failures:
        print("FAIL: regressed beyond tolerance on: " + ", ".join(failures))
        return 1
    print("disruptions regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
