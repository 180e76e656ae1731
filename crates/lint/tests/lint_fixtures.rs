//! Fixture-driven tests for the rule engine: each fixture under
//! `tests/fixtures/` seeds known violations, and the assertions pin the
//! exact `(rule, line)` pairs the scan must produce. Fixtures are read from
//! disk (never inlined here) so this test file itself stays clean under the
//! self-scan — `fixtures` directories are excluded from `workspace_files`.

use foodmatch_lint::rules::{
    NONDETERMINISTIC_ITERATION, ONE_FAN_OUT, PANIC_FREE_DURABILITY, REASONED_ALLOW,
    TELEMETRY_HANDLE_DISCIPLINE, UNUSED_WAIVER, WAIVER_SYNTAX, WALL_CLOCK_HYGIENE,
};
use foodmatch_lint::{scan_source, Diagnostic};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

fn rule_lines(diagnostics: &[Diagnostic]) -> Vec<(&'static str, usize)> {
    diagnostics.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn hash_iteration_is_flagged_on_the_output_path() {
    let source = fixture("nondet_iter.rs");
    // Two directories of the path set, and two single files of it.
    for path in [
        "crates/core/src/policies/fixture.rs",
        "crates/matching/src/matrix.rs",
        "crates/core/src/batching.rs",
        "crates/simulator/src/step.rs",
    ] {
        let (diagnostics, _) = scan_source(path, &source);
        assert_eq!(
            rule_lines(&diagnostics),
            vec![(NONDETERMINISTIC_ITERATION, 5), (NONDETERMINISTIC_ITERATION, 20)],
            "line 5 iterates a HashMap param, line 20 for-loops over one; the \
             collect-then-sort at lines 13–14 must escape: {diagnostics:#?}"
        );
    }
}

#[test]
fn hash_iteration_is_scoped_to_output_path_files() {
    let source = fixture("nondet_iter.rs");
    let (diagnostics, _) = scan_source("crates/telemetry/src/fixture.rs", &source);
    assert!(diagnostics.is_empty(), "rule must not fire outside its path set: {diagnostics:#?}");
}

#[test]
fn panics_are_flagged_in_durability_code_but_not_tests() {
    let source = fixture("panics.rs");
    let (diagnostics, _) = scan_source("crates/simulator/src/wal.rs", &source);
    assert_eq!(
        rule_lines(&diagnostics),
        vec![(PANIC_FREE_DURABILITY, 2), (PANIC_FREE_DURABILITY, 8), (PANIC_FREE_DURABILITY, 13),],
        "unwrap/panic!/expect in production code; the #[cfg(test)] unwrap \
         at line 22 is exempt: {diagnostics:#?}"
    );
}

#[test]
fn wall_clock_reads_are_flagged_unless_recorder_gated() {
    let source = fixture("wall_clock.rs");
    let (diagnostics, _) = scan_source("crates/simulator/src/clock_fixture.rs", &source);
    assert_eq!(
        rule_lines(&diagnostics),
        vec![(WALL_CLOCK_HYGIENE, 4), (WALL_CLOCK_HYGIENE, 13), (WALL_CLOCK_HYGIENE, 17)],
        "Instant::now, SystemTime::now and thread::sleep flagged; the \
         `.then(Instant::now)` gate at line 9 must escape: {diagnostics:#?}"
    );
}

#[test]
fn wall_clock_rule_skips_telemetry_and_bench_crates() {
    let source = fixture("wall_clock.rs");
    for path in ["crates/telemetry/src/lib.rs", "crates/bench/src/main.rs"] {
        let (diagnostics, _) = scan_source(path, &source);
        assert!(diagnostics.is_empty(), "{path} must be clock-exempt: {diagnostics:#?}");
    }
}

#[test]
fn telemetry_lookups_are_flagged_outside_constructors() {
    let source = fixture("telemetry.rs");
    let (diagnostics, _) = scan_source("crates/simulator/src/metrics_fixture.rs", &source);
    assert_eq!(
        rule_lines(&diagnostics),
        vec![(TELEMETRY_HANDLE_DISCIPLINE, 11)],
        "the lookup in `on_window` is per-window; the ones in `new` and \
         `with_gauge` are constructor-shaped: {diagnostics:#?}"
    );
}

#[test]
fn threads_start_only_in_the_one_fan_out() {
    let source = fixture("fan_out.rs");
    for path in [
        "crates/core/src/batching.rs",
        "crates/simulator/src/checkpoint.rs",
        "crates/bench/src/main.rs",
        "examples/demo.rs",
    ] {
        let (diagnostics, _) = scan_source(path, &source);
        assert_eq!(
            rule_lines(&diagnostics),
            vec![(ONE_FAN_OUT, 2), (ONE_FAN_OUT, 6), (ONE_FAN_OUT, 7), (ONE_FAN_OUT, 18)],
            "thread::scope, thread::spawn, thread::Builder and the imported \
             module's scope; available_parallelism (line 12) and the \
             #[cfg(test)] spawn (line 25) must escape: {diagnostics:#?}"
        );
    }
    // The one fan-out and integration tests may.
    for path in [
        "crates/matching/src/parallel.rs",
        "tests/router_equivalence.rs",
        "crates/lint/tests/self_scan.rs",
    ] {
        let (diagnostics, _) = scan_source(path, &source);
        assert!(diagnostics.is_empty(), "{path} may start threads: {diagnostics:#?}");
    }
}

#[test]
fn clippy_allows_must_say_why() {
    let source = fixture("reasoned_allow.rs");
    // No path set: test files are held to it like library code.
    for path in ["crates/roadnet/src/index.rs", "tests/recovery_equivalence.rs"] {
        let (diagnostics, _) = scan_source(path, &source);
        assert_eq!(
            rule_lines(&diagnostics),
            vec![(REASONED_ALLOW, 1), (REASONED_ALLOW, 10), (REASONED_ALLOW, 21)],
            "the bare attribute, the bare inner attribute and the one whose \
             comment is empty; a trailing comment (lines 4, 15), a `reason =` \
             (line 7) and a non-clippy allow (line 18) must escape: {diagnostics:#?}"
        );
    }
}

#[test]
fn waivers_suppress_exactly_one_diagnostic_each() {
    let source = fixture("waivers.rs");
    let (diagnostics, waivers) = scan_source("crates/simulator/src/wal.rs", &source);
    assert_eq!(
        rule_lines(&diagnostics),
        vec![
            (WAIVER_SYNTAX, 8),
            (PANIC_FREE_DURABILITY, 9),
            (WAIVER_SYNTAX, 13),
            (UNUSED_WAIVER, 15),
        ],
        "reason-less waiver, the unwrap it failed to cover, unknown rule id, \
         and the stale waiver must all surface: {diagnostics:#?}"
    );
    // The one well-formed, targeted waiver (line 2) suppressed exactly the
    // unwrap on line 3 and nothing else.
    let recorded: Vec<(usize, usize, usize)> =
        waivers.iter().map(|w| (w.declared_line, w.covers_line, w.suppressed)).collect();
    assert_eq!(recorded, vec![(2, 3, 1), (15, 16, 0)], "{waivers:#?}");
    assert!(waivers[0].reason.contains("length-check"), "{waivers:#?}");
}
