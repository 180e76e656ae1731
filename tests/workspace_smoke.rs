//! Workspace-level smoke tests: the repro harness enumerates every
//! experiment, and scenario generation is deterministic under a fixed seed.

use foodmatch_bench::experiments;
use integration_tests::tiny_scenario;

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
