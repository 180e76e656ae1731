//! Workspace-level smoke tests: the repro harness enumerates every
//! experiment, scenario generation is deterministic under a fixed seed, and
//! the static rules stay configured.

use foodmatch_bench::experiments;
use integration_tests::tiny_scenario;
use std::fs;
use std::path::Path;

/// Every figure/table of the paper's evaluation must stay registered, so the
/// `repro` binary (and the CI bench smoke job) can never silently lose one.
/// The seven families of the paper's evaluation — table2, fig4a and the
/// fig6–fig9 sweeps — are split into 13 registered experiments; the 14th is
/// the deterministic `disruptions` XDT guard. Nothing else is registered:
/// performance is measured by `benchmark/`.
#[test]
fn repro_list_enumerates_all_experiments() {
    let names: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
    for expected in experiments::EXPECTED_NAMES {
        assert!(names.contains(&expected), "experiment {expected} missing from {names:?}");
    }
    assert_eq!(
        names.len(),
        experiments::EXPECTED_NAMES.len(),
        "unexpected experiment registry size: {names:?}"
    );
    for experiment in experiments::ALL {
        assert!(
            experiments::find(experiment.name).is_some(),
            "find() cannot resolve {}",
            experiment.name
        );
        assert!(!experiment.description.is_empty());
    }
}

/// One full accumulation window of the tiny scenario is deterministic: the
/// same seed yields byte-identical orders and fleet, and a different seed a
/// different workload.
#[test]
fn tiny_scenario_runs_one_window_deterministically() {
    let a = tiny_scenario(42);
    let b = tiny_scenario(42);
    assert_eq!(a.orders, b.orders);
    assert_eq!(a.vehicle_starts, b.vehicle_starts);
    assert!(!a.orders.is_empty(), "tiny scenario generated no orders");

    let other = tiny_scenario(43);
    assert_ne!(a.orders, other.orders, "different seeds must generate different workloads");

    // Run the simulation over exactly one accumulation window and check both
    // runs agree on every reported metric.
    let config = a.default_config();
    let window = config.accumulation_window;
    let run = |scenario: foodmatch_workload::Scenario| {
        let start = scenario.options.start;
        let mut truncated = scenario;
        truncated.options.end = start + window;
        truncated.orders.retain(|o| o.placed_at < start + window);
        truncated.into_simulation().run(&mut foodmatch_core::FoodMatchPolicy::new())
    };
    let first = run(tiny_scenario(42));
    let second = run(tiny_scenario(42));
    assert_eq!(first.total_orders, second.total_orders);
    assert_eq!(first.delivered.len(), second.delivered.len());
    assert_eq!(first.rejected.len(), second.rejected.len());
}

/// The determinism and panic-safety rules are clippy configuration (README
/// "Static guarantees"). This pins it in place: the integration tests and
/// examples read the same `clippy.toml` as the crates, every banned call
/// says which rule it serves, the recovery code denies panics, and the
/// number of `#[expect]` waivers is the number README states, so waiver
/// creep shows in review.
#[test]
fn static_rules_are_configured() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("tests/ sits in the repo");
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).unwrap_or_else(|error| panic!("{rel}: {error}"))
    };

    let config = read("crates/clippy.toml");
    assert_eq!(
        read("tests/clippy.toml"),
        config,
        "tests/clippy.toml differs from crates/clippy.toml"
    );

    let (_, banned) = config.split_once("disallowed-methods = [").expect("no disallowed-methods");
    let (banned, _) = banned.split_once("\n]").expect("disallowed-methods is not closed");
    let entries: Vec<&str> = banned
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect();
    assert!(!entries.is_empty(), "disallowed-methods bans nothing");
    for entry in entries {
        let reason = entry.split_once("reason = \"").map(|(_, rest)| rest.split('"').next());
        assert!(
            entry.starts_with("{ path = ") && reason.flatten().is_some_and(|r| !r.is_empty()),
            "disallowed-methods entry without a reason: {entry}"
        );
    }

    for file in ["wal", "checkpoint", "durable"] {
        let source = read(&format!("crates/simulator/src/{file}.rs"));
        let deny = source
            .split_once("#![deny(")
            .and_then(|(_, rest)| rest.split_once(")]"))
            .map_or("", |(lints, _)| lints);
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"]
        {
            assert!(deny.contains(&format!("clippy::{lint}")), "{file}.rs does not deny {lint}");
        }
    }

    let readme = read("README.md");
    let (_, stated) = readme.split_once("The workspace holds ").expect("README states no count");
    let stated: usize = stated.split(' ').next().and_then(|n| n.parse().ok()).expect("a count");
    let waivers: usize = ["crates", "tests", "examples"]
        .iter()
        .map(|dir| count_expect_attributes(&root.join(dir)))
        .sum();
    assert_eq!(
        waivers, stated,
        "README states {stated} `#[expect]` waivers, the tree has {waivers}"
    );
}

/// Lines that open an `#[expect(…)]` attribute, over every `.rs` file below
/// `dir`.
fn count_expect_attributes(dir: &Path) -> usize {
    let mut count = 0;
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            count += count_expect_attributes(&path);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = fs::read_to_string(&path).expect("readable source");
            count +=
                source.lines().filter(|line| line.trim_start().starts_with("#[expect(")).count();
        }
    }
    count
}
