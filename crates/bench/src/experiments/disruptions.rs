//! Disruption benchmark: all four policies under calm vs disrupted days.
//!
//! Not a figure of the paper — this experiment exercises the dynamic-events
//! subsystem end to end. The same City A lunch-peak scenario is run under
//! every [`DisruptionPreset`] (calm, rainy_evening, incident_heavy) with
//! every dispatch policy; the calm run is the baseline the disrupted runs
//! are compared against. Reported per run: XDT, orders/km, rejection and
//! cancellation rates, deliveries, the fraction of windows closed under an
//! active traffic perturbation, the XDT accrued during those windows, and
//! (for a disrupted day) the change of XDT from the calm day.
//!
//! Its `--quick` rows, written by `repro disruptions --quick --ledger-out`,
//! are the committed `BENCH_disruptions.json` that CI compares each commit's
//! XDT against.

use crate::harness::ExperimentContext;
use crate::ledger::Row;
use foodmatch_core::PolicyKind;
use foodmatch_roadnet::{ShortestPathEngine, TimePoint};
use foodmatch_sim::Simulation;
use foodmatch_workload::{CityId, DisruptionPreset, Scenario, ScenarioOptions};

/// Runs every (policy, preset) pair on one City A scenario; the series of a
/// run is `policy/preset`.
pub fn run(ctx: &ExperimentContext) -> Vec<Row> {
    let city = CityId::A;
    let scenario = Scenario::generate(city, options(ctx));
    let config = scenario.default_config();
    let mut rows = vec![
        Row::new(city, "scenario", "orders", "count", scenario.orders.len() as f64),
        Row::new(city, "scenario", "vehicles", "count", scenario.vehicle_starts.len() as f64),
    ];
    for policy in PolicyKind::ALL {
        let mut calm_xdt = 0.0;
        for preset in DisruptionPreset::ALL {
            let events = preset.builder(ctx.seed).build(&scenario);
            let event_count = events.len() as f64;
            // A fresh engine per run: overlays mutate engine state, and every
            // (policy, preset) pair must see the same cold-cache regime.
            let engine = ShortestPathEngine::cached(scenario.city.network.clone());
            let simulation = Simulation::new(
                engine,
                scenario.orders.clone(),
                scenario.vehicle_starts.clone(),
                config.clone(),
                scenario.options.start,
                scenario.options.end,
            )
            .with_events(events);
            let mut built = policy.build();
            let report = simulation.run(built.as_mut());
            let xdt = report.xdt_hours_per_day();
            let series = format!("{}/{}", policy.name(), preset.name());
            let mut push =
                |metric, unit, value| rows.push(Row::new(city, &series, metric, unit, value));
            push("events", "count", event_count);
            push("xdt_hours_per_day", "h/day", xdt);
            push("orders_per_km", "orders/km", report.orders_per_km());
            push("rejection_pct", "%", report.rejection_rate_pct());
            push("cancellation_pct", "%", report.cancellation_rate_pct());
            push("delivered", "count", report.delivered.len() as f64);
            push("disrupted_window_pct", "%", report.disrupted_window_pct());
            push("xdt_disrupted_hours", "h", report.xdt_hours_disrupted());
            // The calm day is the baseline: it has no change of its own.
            if preset == DisruptionPreset::Calm {
                calm_xdt = xdt;
            } else if calm_xdt.abs() >= 1e-12 {
                push("xdt_change_pct", "%", (xdt - calm_xdt) / calm_xdt * 100.0);
            }
        }
    }
    rows
}

fn options(ctx: &ExperimentContext) -> ScenarioOptions {
    let mut options = ScenarioOptions::lunch_peak(ctx.seed);
    if ctx.quick {
        options.start = TimePoint::from_hms(12, 0, 0);
        options.end = TimePoint::from_hms(13, 0, 0);
    }
    options
}
