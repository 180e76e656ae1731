//! Disruption benchmark: all four policies under calm vs disrupted days.
//!
//! Not a figure of the paper — this experiment exercises the dynamic-events
//! subsystem end to end. The same City A lunch-peak scenario is run under
//! every [`DisruptionPreset`] (calm, rainy_evening, incident_heavy) with
//! every dispatch policy; the calm run is the baseline the disrupted runs
//! are compared against. Reported per run: XDT, orders/km, rejection and
//! cancellation rates, the fraction of windows closed under an active
//! traffic perturbation, and the share of XDT accrued during those windows.
//!
//! With `--bench-out FILE` the results are additionally written as JSON
//! (`BENCH_disruptions.json` in CI) so successive commits can compare how
//! policies cope with a moving environment.

use crate::harness::{cell, header, ExperimentContext};
use foodmatch_core::PolicyKind;
use foodmatch_roadnet::{ShortestPathEngine, TimePoint};
use foodmatch_sim::{Simulation, SimulationReport};
use foodmatch_workload::{CityId, DisruptionPreset, Scenario, ScenarioOptions};

/// One (policy, preset) simulation outcome.
struct DisruptionRun {
    policy: PolicyKind,
    preset: DisruptionPreset,
    events: usize,
    xdt_hours_per_day: f64,
    orders_per_km: f64,
    rejection_pct: f64,
    cancellation_pct: f64,
    delivered: usize,
    disrupted_window_pct: f64,
    xdt_disrupted_hours: f64,
}

/// Runs the benchmark, prints the comparison table, and writes
/// `ctx.bench_out` when set.
pub fn run(ctx: &ExperimentContext) {
    header("Disruptions — policies under calm vs disrupted days (City A, lunch peak)");

    let scenario = Scenario::generate(CityId::A, options(ctx));
    let config = scenario.default_config();
    println!(
        "{} orders, {} vehicles, horizon {}–{}",
        scenario.orders.len(),
        scenario.vehicle_starts.len(),
        scenario.options.start,
        scenario.options.end
    );
    println!();
    println!(
        "{:<10} {:<15} {:>7} {:>10} {:>10} {:>8} {:>8} {:>9} {:>10}",
        "Policy", "Profile", "events", "XDT h/d", "O/Km", "Rej %", "Canc %", "DisrW %", "ΔXDT %"
    );

    let mut runs: Vec<DisruptionRun> = Vec::new();
    for policy in PolicyKind::ALL {
        let mut calm_xdt = f64::NAN;
        for preset in DisruptionPreset::ALL {
            let events = preset.builder(ctx.seed).build(&scenario);
            let event_count = events.len();
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
            let run = summarise(policy, preset, event_count, &report);
            if preset == DisruptionPreset::Calm {
                calm_xdt = run.xdt_hours_per_day;
            }
            let delta_pct = if preset == DisruptionPreset::Calm || calm_xdt.abs() < 1e-12 {
                0.0
            } else {
                (run.xdt_hours_per_day - calm_xdt) / calm_xdt * 100.0
            };
            println!(
                "{:<10} {:<15} {:>7} {} {} {} {} {} {}",
                policy.name(),
                preset.name(),
                run.events,
                cell(run.xdt_hours_per_day),
                cell(run.orders_per_km),
                cell(run.rejection_pct),
                cell(run.cancellation_pct),
                cell(run.disrupted_window_pct),
                cell(delta_pct)
            );
            runs.push(run);
        }
    }

    if let Some(path) = &ctx.bench_out {
        let json = to_json(ctx, &scenario, &runs);
        match std::fs::write(path, json) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(err) => eprintln!("failed to write {}: {err}", path.display()),
        }
    }
}

fn options(ctx: &ExperimentContext) -> ScenarioOptions {
    let mut options = ScenarioOptions::lunch_peak(ctx.seed);
    if ctx.quick {
        options.start = TimePoint::from_hms(12, 0, 0);
        options.end = TimePoint::from_hms(13, 0, 0);
    }
    options
}

fn summarise(
    policy: PolicyKind,
    preset: DisruptionPreset,
    events: usize,
    report: &SimulationReport,
) -> DisruptionRun {
    DisruptionRun {
        policy,
        preset,
        events,
        xdt_hours_per_day: report.xdt_hours_per_day(),
        orders_per_km: report.orders_per_km(),
        rejection_pct: report.rejection_rate_pct(),
        cancellation_pct: report.cancellation_rate_pct(),
        delivered: report.delivered.len(),
        disrupted_window_pct: report.disrupted_window_pct(),
        xdt_disrupted_hours: report.xdt_hours_disrupted(),
    }
}

/// Serialises the results by hand (the workspace has no JSON dependency);
/// flat, stable keys — CI diffs them.
fn to_json(ctx: &ExperimentContext, scenario: &Scenario, runs: &[DisruptionRun]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"city-A lunch-peak\",\n");
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    out.push_str(&format!("  \"orders\": {},\n", scenario.orders.len()));
    out.push_str(&format!("  \"vehicles\": {},\n", scenario.vehicle_starts.len()));
    out.push_str(&format!(
        "  \"profiles\": [{}],\n",
        DisruptionPreset::ALL
            .iter()
            .map(|p| format!("\"{}\"", p.name()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"profile\": \"{}\", \"events\": {}, \
             \"xdt_hours_per_day\": {:.4}, \"orders_per_km\": {:.4}, \"rejection_pct\": {:.3}, \
             \"cancellation_pct\": {:.3}, \"delivered\": {}, \"disrupted_window_pct\": {:.3}, \
             \"xdt_disrupted_hours\": {:.4}}}{}\n",
            r.policy.name(),
            r.preset.name(),
            r.events,
            r.xdt_hours_per_day,
            r.orders_per_km,
            r.rejection_pct,
            r.cancellation_pct,
            r.delivered,
            r.disrupted_window_pct,
            r.xdt_disrupted_hours,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_layout_is_wellformed() {
        let ctx = ExperimentContext::default();
        let scenario = Scenario::generate(
            CityId::GrubHub,
            ScenarioOptions {
                seed: 1,
                start: TimePoint::from_hms(12, 0, 0),
                end: TimePoint::from_hms(12, 30, 0),
                vehicle_fraction: 1.0,
            },
        );
        let runs = vec![DisruptionRun {
            policy: PolicyKind::FoodMatch,
            preset: DisruptionPreset::IncidentHeavy,
            events: 12,
            xdt_hours_per_day: 4.2,
            orders_per_km: 0.9,
            rejection_pct: 3.0,
            cancellation_pct: 5.0,
            delivered: 40,
            disrupted_window_pct: 35.0,
            xdt_disrupted_hours: 1.5,
        }];
        let json = to_json(&ctx, &scenario, &runs);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["incident_heavy", "xdt_hours_per_day", "cancellation_pct", "profiles"] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
