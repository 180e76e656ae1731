#!/usr/bin/env python3
"""CI guard against benchmark regressions.

Compares a freshly measured benchmark JSON against the committed baseline and
fails (exit 1) on regressions beyond the threshold (default 30%). The file
kind is auto-detected from its keys:

* ``BENCH_dispatch.json`` (``backends``): fails when any backend's
  ``queries_per_sec`` dropped by more than the threshold.
* ``BENCH_disruptions.json`` (``runs``): fails when any (policy, profile)
  run's ``xdt_hours_per_day`` grew by more than the threshold (policy
  quality, not wall-clock, so it is hardware-independent).
* ``BENCH_service.json`` (``service``): fails when any policy's sustained
  ingest ``orders_per_sec`` dropped, or its per-``advance_to`` ``mean_ms``
  or ``p90_ms`` latency grew, by more than the threshold.
* ``BENCH_router.json`` (``router``): fails when any shard count's sustained
  ingest ``orders_per_sec`` dropped, or its lockstep ``advance_to``
  ``mean_ms`` or ``p90_ms`` latency grew, by more than the threshold — the
  shard-scaling curve must not flatten.
* ``BENCH_recovery.json`` (``recovery``): fails when durable (WAL-on)
  ingest ``wal_orders_per_sec`` dropped, the ``wal_overhead_ratio`` vs the
  bare service grew, checkpoint ``save_best_ms``/``restore_best_ms`` grew,
  or the replay ``records_per_sec`` catch-up rate dropped, by more than the
  threshold — crash-safety must not silently get more expensive. The
  guarded numbers are best-of estimates (fastest chunk/snapshot/pass): the
  sub-millisecond fsync-bound means are too runner-noise-sensitive to gate
  on, the floor is not. Additionally, the **group-commit gate** asserts the
  best amortising flush policy in the ``flush_policies`` sweep keeps its
  ``wal_overhead_ratio`` at or below an absolute 25x. Like the telemetry
  gate this compares two passes of the same run (plain vs durable, same
  machine, minutes apart), so it enforces even when the committed baseline
  is not comparable.
* ``BENCH_telemetry.json`` (``telemetry``): fails when the recorder-on
  dispatch loop is more than 5% slower than the recorder-off loop of the
  *same run* (``overhead_pct``) — the observability contract. This check
  is self-contained in the new file (on vs off were interleaved on the
  same machine minutes apart), so it enforces regardless of baseline
  comparability; it is skipped only when ``recorder_preinstalled`` is
  true (the run was made under ``--telemetry-out``, so the "off" passes
  were live too).

Timing-based comparisons (dispatch, service, router, recovery) are skipped
— informational only, exit 0 — when the two runs are not comparable:
different ``available_parallelism`` or a different ``quick`` flag. The
deterministic disruptions metrics only require matching ``quick`` and
``seed``.

With ``--lint-report LINT_JSON`` the script additionally summarises a
``foodmatch-lint`` report: waiver count (per rule) and diagnostic count,
failing when the report carries unwaived diagnostics. In this mode the two
benchmark positionals may be omitted to check the lint report alone.

Usage:
    check_bench_regression.py NEW_JSON BASELINE_JSON [--threshold 0.30]
    check_bench_regression.py --lint-report lint-report.json
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_comparable(new, baseline, keys):
    """Returns True when the runs are comparable on every key in ``keys``."""
    comparable = True
    reasons = {
        "available_parallelism": "different core counts",
        "quick": "different workloads",
        "seed": "different scenario days",
    }
    for key in keys:
        if new.get(key) != baseline.get(key):
            print(
                f"SKIP bench regression check: {key} differs "
                f"({baseline.get(key)} -> {new.get(key)}, {reasons[key]})"
            )
            comparable = False
    if not comparable:
        print(
            "::warning::bench regression guard is NOT enforcing — the committed "
            "baseline was measured under different conditions. Refresh it from "
            "this runner's CI artifact (download, rename, commit) to arm the "
            "guard."
        )
        print("informational comparison (not comparable, not enforced):")
    return comparable


def check_dispatch(new, baseline, threshold):
    """Queries/sec guard for BENCH_dispatch.json. Returns failure labels."""
    baseline_backends = {b["kind"]: b for b in baseline.get("backends", [])}
    failures = []
    for backend in new.get("backends", []):
        kind = backend["kind"]
        old = baseline_backends.get(kind)
        if old is None:
            print(f"note: backend {kind} has no committed baseline, skipping")
            continue
        old_qps = float(old["queries_per_sec"])
        new_qps = float(backend["queries_per_sec"])
        if old_qps <= 0:
            continue
        drop = (old_qps - new_qps) / old_qps
        status = "REGRESSION" if drop > threshold else "ok"
        print(
            f"{kind:<24} baseline {old_qps:>12.0f} q/s  now {new_qps:>12.0f} q/s  "
            f"({-drop:+.1%}) {status}"
        )
        if drop > threshold:
            failures.append(f"{kind} queries/sec")
    return failures


def check_service(new, baseline, threshold):
    """Ingest-throughput and advance-latency guard for BENCH_service.json."""
    baseline_runs = {r["policy"]: r for r in baseline.get("service", [])}
    failures = []
    for run in new.get("service", []):
        policy = run["policy"]
        old = baseline_runs.get(policy)
        if old is None:
            print(f"note: policy {policy} has no committed baseline, skipping")
            continue
        old_qps = float(old["ingest"]["orders_per_sec"])
        new_qps = float(run["ingest"]["orders_per_sec"])
        if old_qps > 0:
            drop = (old_qps - new_qps) / old_qps
            status = "REGRESSION" if drop > threshold else "ok"
            print(
                f"{policy:<10} {'ingest orders/sec':<18} baseline {old_qps:>12.0f}  "
                f"now {new_qps:>12.0f}  ({-drop:+.1%}) {status}"
            )
            if drop > threshold:
                failures.append(f"{policy} ingest throughput")
        for field in ("mean_ms", "p90_ms"):
            old_ms = float(old["advance"][field])
            new_ms = float(run["advance"][field])
            if old_ms <= 0:
                continue
            growth = (new_ms - old_ms) / old_ms
            status = "REGRESSION" if growth > threshold else "ok"
            print(
                f"{policy:<10} {'advance ' + field:<18} baseline {old_ms:>11.2f}ms  "
                f"now {new_ms:>11.2f}ms  ({growth:+.1%}) {status}"
            )
            if growth > threshold:
                failures.append(f"{policy} advance {field}")
    return failures


def check_router(new, baseline, threshold):
    """Shard-scaling guard for BENCH_router.json (per shard count)."""
    baseline_runs = {r["zones"]: r for r in baseline.get("router", [])}
    failures = []
    for run in new.get("router", []):
        zones = run["zones"]
        old = baseline_runs.get(zones)
        if old is None:
            print(f"note: shard count {zones} has no committed baseline, skipping")
            continue
        label = f"{zones} shard(s)"
        old_qps = float(old["ingest"]["orders_per_sec"])
        new_qps = float(run["ingest"]["orders_per_sec"])
        if old_qps > 0:
            drop = (old_qps - new_qps) / old_qps
            status = "REGRESSION" if drop > threshold else "ok"
            print(
                f"{label:<10} {'ingest orders/sec':<18} baseline {old_qps:>12.0f}  "
                f"now {new_qps:>12.0f}  ({-drop:+.1%}) {status}"
            )
            if drop > threshold:
                failures.append(f"{label} ingest throughput")
        for field in ("mean_ms", "p90_ms"):
            old_ms = float(old["advance"][field])
            new_ms = float(run["advance"][field])
            if old_ms <= 0:
                continue
            growth = (new_ms - old_ms) / old_ms
            status = "REGRESSION" if growth > threshold else "ok"
            print(
                f"{label:<10} {'advance ' + field:<18} baseline {old_ms:>11.2f}ms  "
                f"now {new_ms:>11.2f}ms  ({growth:+.1%}) {status}"
            )
            if growth > threshold:
                failures.append(f"{label} advance {field}")
    return failures


def check_recovery(new, baseline, threshold):
    """Durability-cost guard for BENCH_recovery.json (per policy)."""
    baseline_runs = {r["policy"]: r for r in baseline.get("recovery", [])}
    failures = []
    for run in new.get("recovery", []):
        policy = run["policy"]
        old = baseline_runs.get(policy)
        if old is None:
            print(f"note: policy {policy} has no committed baseline, skipping")
            continue

        def lower_is_regression(label, new_value, old_value, unit=""):
            if old_value <= 0:
                return
            drop = (old_value - new_value) / old_value
            status = "REGRESSION" if drop > threshold else "ok"
            print(
                f"{policy:<10} {label:<22} baseline {old_value:>12.1f}{unit}  "
                f"now {new_value:>12.1f}{unit}  ({-drop:+.1%}) {status}"
            )
            if drop > threshold:
                failures.append(f"{policy} {label}")

        def higher_is_regression(label, new_value, old_value, unit=""):
            if old_value <= 0:
                return
            growth = (new_value - old_value) / old_value
            status = "REGRESSION" if growth > threshold else "ok"
            print(
                f"{policy:<10} {label:<22} baseline {old_value:>12.2f}{unit}  "
                f"now {new_value:>12.2f}{unit}  ({growth:+.1%}) {status}"
            )
            if growth > threshold:
                failures.append(f"{policy} {label}")

        lower_is_regression(
            "WAL ingest orders/sec",
            float(run["ingest"]["wal_orders_per_sec"]),
            float(old["ingest"]["wal_orders_per_sec"]),
        )
        higher_is_regression(
            "checkpoint bytes",
            float(run["checkpoint"]["bytes"]),
            float(old["checkpoint"]["bytes"]),
            "B",
        )
        higher_is_regression(
            "WAL overhead ratio",
            float(run["ingest"]["wal_overhead_ratio"]),
            float(old["ingest"]["wal_overhead_ratio"]),
            "x",
        )
        higher_is_regression(
            "checkpoint save best",
            float(run["checkpoint"]["save_best_ms"]),
            float(old["checkpoint"]["save_best_ms"]),
            "ms",
        )
        higher_is_regression(
            "checkpoint restore best",
            float(run["checkpoint"]["restore_best_ms"]),
            float(old["checkpoint"]["restore_best_ms"]),
            "ms",
        )
        lower_is_regression(
            "replay records/sec",
            float(run["replay"]["records_per_sec"]),
            float(old["replay"]["records_per_sec"]),
        )
    return failures


def check_recovery_group_commit(new):
    """Absolute group-commit gate for BENCH_recovery.json (self-contained).

    The flush-policy sweep measures bare vs durable ingest within the same
    run — same machine, minutes apart — so, like the telemetry gate, it
    needs no committed baseline and enforces even when the baseline is not
    comparable. The best amortising policy (anything but ``every-record``)
    must keep the durability tax at or below the limit; ``every-record``
    deliberately pays one fsync per order and is exempt.
    """
    overhead_limit = 25.0
    failures = []
    for run in new.get("recovery", []):
        policy = run["policy"]
        rows = [
            row
            for row in run.get("ingest", {}).get("flush_policies", [])
            if row.get("policy") != "every-record"
        ]
        if not rows:
            print(f"note: {policy} has no group-commit flush-policy sweep, skipping")
            continue
        best = min(rows, key=lambda row: float(row["wal_overhead_ratio"]))
        ratio = float(best["wal_overhead_ratio"])
        status = "REGRESSION" if ratio > overhead_limit else "ok"
        print(
            f"{policy:<10} {'group-commit overhead':<22} best {best['policy']} "
            f"{ratio:.2f}x (limit {overhead_limit:.0f}x) {status}"
        )
        if ratio > overhead_limit:
            failures.append(
                f"{policy} group-commit overhead {ratio:.2f}x "
                f"(absolute limit {overhead_limit:.0f}x)"
            )
    return failures


def check_telemetry(new):
    """Recorder-overhead guard for BENCH_telemetry.json (self-contained).

    The experiment interleaves recorder-off and recorder-on passes of the
    same dispatch loop, so ``overhead_pct`` is a same-machine, same-minute
    comparison: no baseline or comparability gate is needed (or used).
    """
    overhead_limit_pct = 5.0
    failures = []
    for run in new.get("telemetry", []):
        label = f"{run['shards']} shard(s)"
        if run.get("recorder_preinstalled"):
            print(
                f"SKIP {label}: recorder was pre-installed (--telemetry-out), "
                "the recorder-off passes were live — overhead gate not applicable"
            )
            continue
        off_qps = float(run["off"]["orders_per_sec"])
        on_qps = float(run["on"]["orders_per_sec"])
        overhead = float(run["overhead_pct"])
        status = "REGRESSION" if overhead > overhead_limit_pct else "ok"
        print(
            f"{label:<10} recorder off {off_qps:>10.0f} ord/s  on {on_qps:>10.0f} ord/s  "
            f"overhead {overhead:+.2f}% (limit {overhead_limit_pct:.0f}%) {status}"
        )
        if overhead > overhead_limit_pct:
            failures.append(f"{label} recorder overhead {overhead:.2f}%")
    return failures


def check_disruptions(new, baseline, threshold):
    """Policy-quality guard for BENCH_disruptions.json (XDT per run)."""
    def key(run):
        return (run["policy"], run["profile"])

    baseline_runs = {key(r): r for r in baseline.get("runs", [])}
    failures = []
    for run in new.get("runs", []):
        old = baseline_runs.get(key(run))
        if old is None:
            print(f"note: run {key(run)} has no committed baseline, skipping")
            continue
        old_xdt, new_xdt = float(old["xdt_hours_per_day"]), float(run["xdt_hours_per_day"])
        if old_xdt <= 0:
            continue
        growth = (new_xdt - old_xdt) / old_xdt
        status = "REGRESSION" if growth > threshold else "ok"
        print(
            f"{run['policy']:<10} {run['profile']:<15} baseline XDT {old_xdt:>8.3f} h/d  "
            f"now {new_xdt:>8.3f} h/d  ({growth:+.1%}) {status}"
        )
        if growth > threshold:
            failures.append(f"{run['policy']}/{run['profile']} XDT")
    return failures


def check_lint_report(path):
    """Summarises a foodmatch-lint JSON report. Returns failure labels."""
    report = load(path)
    waivers = report.get("waivers", [])
    per_rule = {}
    for waiver in waivers:
        per_rule[waiver["rule"]] = per_rule.get(waiver["rule"], 0) + 1
    breakdown = ", ".join(f"{rule}: {n}" for rule, n in sorted(per_rule.items()))
    print(
        f"lint: {report.get('files_scanned', '?')} files scanned, "
        f"{report.get('waiver_count', len(waivers))} waiver(s)"
        + (f" ({breakdown})" if breakdown else "")
    )
    for waiver in waivers:
        print(
            f"  waived [{waiver['rule']}] {waiver['path']}:{waiver['line']} "
            f"— {waiver['reason']}"
        )
    count = int(report.get("diagnostic_count", 0))
    if count > 0:
        for diag in report.get("diagnostics", []):
            print(f"  UNWAIVED [{diag['rule']}] {diag['path']}:{diag['line']}")
        return [f"{count} unwaived lint diagnostic(s)"]
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new", nargs="?", help="freshly generated benchmark JSON")
    parser.add_argument("baseline", nargs="?", help="committed baseline benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="maximum tolerated fractional regression (default 0.30)",
    )
    parser.add_argument(
        "--lint-report",
        help="foodmatch-lint JSON report to summarise (waiver count) and gate on",
    )
    args = parser.parse_args()

    lint_failures = []
    if args.lint_report:
        lint_failures = check_lint_report(args.lint_report)
    if args.new is None or args.baseline is None:
        if not args.lint_report:
            parser.error("NEW_JSON and BASELINE_JSON are required without --lint-report")
        if lint_failures:
            print("FAIL: " + ", ".join(lint_failures))
            return 1
        print("lint report check passed")
        return 0

    new = load(args.new)
    baseline = load(args.baseline)

    # Self-contained gates (no baseline needed) collected separately: they
    # enforce even when the baseline comparison is informational-only.
    enforced = []
    if "backends" in new:
        comparable = check_comparable(new, baseline, ["available_parallelism", "quick"])
        failures = check_dispatch(new, baseline, args.threshold)
    elif "service" in new:
        comparable = check_comparable(new, baseline, ["available_parallelism", "quick"])
        failures = check_service(new, baseline, args.threshold)
    elif "router" in new:
        comparable = check_comparable(new, baseline, ["available_parallelism", "quick"])
        failures = check_router(new, baseline, args.threshold)
    elif "recovery" in new:
        comparable = check_comparable(new, baseline, ["available_parallelism", "quick"])
        failures = check_recovery(new, baseline, args.threshold)
        enforced = check_recovery_group_commit(new)
    elif "telemetry" in new:
        # Self-contained on-vs-off comparison: always enforced.
        comparable = True
        failures = check_telemetry(new)
    elif "runs" in new:
        comparable = check_comparable(new, baseline, ["quick", "seed"])
        failures = check_disruptions(new, baseline, args.threshold)
    else:
        print(f"unrecognised benchmark layout in {args.new}")
        return 1

    if not comparable:
        # Baseline-relative numbers above were informational only; the
        # self-contained gates still decide the exit code.
        failures = enforced
    else:
        failures = failures + enforced
    failures = failures + lint_failures
    if failures:
        print("FAIL: regressed beyond tolerance on: " + ", ".join(failures))
        return 1
    print("bench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
