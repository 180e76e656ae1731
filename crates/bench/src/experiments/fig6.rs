//! Figure 6: the paper's headline comparison — demand profile (a), XDT vs
//! the Reyes-style baseline (b), XDT / Orders-per-Km / Waiting time vs
//! Greedy (c–e), scalability (f–h) and per-timeslot improvement over KM
//! (i–k).

use crate::harness::{improvement_pct, report_rows, run_policies, ExperimentContext};
use crate::ledger::Row;
use foodmatch_core::PolicyKind;
use foodmatch_workload::{Scenario, ScenarioOptions};

/// Fig. 6(a): order-to-vehicle ratio per hourly timeslot for every city.
pub fn fig6a(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.swiggy_cities() {
        let scenario = Scenario::generate(city, ScenarioOptions::full_day(ctx.seed));
        for (slot, ratio) in scenario.order_vehicle_ratio_by_slot().into_iter().enumerate() {
            rows.push(Row::new(city, format!("slot {slot}"), "orders_per_vehicle", "ratio", ratio));
        }
    }
    rows
}

/// Fig. 6(b): XDT (hours/day) of FoodMatch vs the Reyes-style baseline on
/// all four cities (the only experiment that includes GrubHub), and their
/// ratio where FoodMatch's XDT is not 0.
pub fn fig6b(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.all_cities() {
        let reports = run_policies(
            city,
            ctx.comparison_options(),
            &[PolicyKind::FoodMatch, PolicyKind::Reyes],
        );
        let fm = reports[&PolicyKind::FoodMatch].xdt_hours_per_day();
        let reyes = reports[&PolicyKind::Reyes].xdt_hours_per_day();
        rows.push(Row::new(city, "FoodMatch", "xdt_hours_per_day", "h/day", fm));
        rows.push(Row::new(city, "Reyes", "xdt_hours_per_day", "h/day", reyes));
        if fm > 1e-9 {
            rows.push(Row::new(city, "Reyes", "xdt_ratio_to_foodmatch", "x", reyes / fm));
        }
    }
    rows
}

/// Fig. 6(c–e): XDT, Orders/Km and Waiting Time of FoodMatch vs Greedy, and
/// FoodMatch's XDT improvement over Greedy.
pub fn fig6cde(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.swiggy_cities() {
        let reports = run_policies(
            city,
            ctx.comparison_options(),
            &[PolicyKind::FoodMatch, PolicyKind::Greedy],
        );
        let fm = &reports[&PolicyKind::FoodMatch];
        let greedy = &reports[&PolicyKind::Greedy];
        rows.extend(report_rows(city, "FoodMatch", fm));
        if let Some(pct) =
            improvement_pct(greedy.xdt_hours_per_day(), fm.xdt_hours_per_day(), false)
        {
            rows.push(Row::new(city, "FoodMatch", "xdt_improvement_pct", "%", pct));
        }
        rows.extend(report_rows(city, "Greedy", greedy));
    }
    rows
}

/// Fig. 6(f–h): percentage of overflown windows (all slots and peak slots)
/// and mean per-window running time (a wall time) for Greedy, vanilla KM
/// and FoodMatch.
pub fn fig6fgh(ctx: &ExperimentContext) -> Vec<Row> {
    let policies = [PolicyKind::Greedy, PolicyKind::KuhnMunkres, PolicyKind::FoodMatch];
    let mut rows = Vec::new();
    for city in ctx.swiggy_cities() {
        let reports = run_policies(city, ctx.comparison_options(), &policies);
        for kind in policies {
            let report = &reports[&kind];
            let series = kind.name();
            rows.push(Row::new(city, series, "overflow_pct", "%", report.overflow_pct(false)));
            rows.push(Row::new(city, series, "overflow_peak_pct", "%", report.overflow_pct(true)));
            let window_ms = report.mean_window_compute_secs() * 1_000.0;
            rows.push(Row::new(city, series, "mean_window_ms", "ms", window_ms));
        }
    }
    rows
}

/// Fig. 6(i–k): improvement of FoodMatch over vanilla KM per hourly timeslot
/// for XDT, Orders/Km and Waiting Time. A cell whose KM baseline is 0 has no
/// row.
pub fn fig6ijk(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.swiggy_cities() {
        let reports = run_policies(
            city,
            ctx.full_day_options(),
            &[PolicyKind::FoodMatch, PolicyKind::KuhnMunkres],
        );
        let fm = &reports[&PolicyKind::FoodMatch];
        let km = &reports[&PolicyKind::KuhnMunkres];
        let metrics = [
            ("xdt_improvement_pct", fm.xdt_hours_by_slot(), km.xdt_hours_by_slot(), false),
            (
                "orders_per_km_improvement_pct",
                fm.orders_per_km_by_slot(),
                km.orders_per_km_by_slot(),
                true,
            ),
            (
                "waiting_improvement_pct",
                fm.waiting_hours_by_slot(),
                km.waiting_hours_by_slot(),
                false,
            ),
        ];
        for slot in 0..24 {
            for (metric, ours, baseline, higher_is_better) in &metrics {
                if let Some(pct) = improvement_pct(baseline[slot], ours[slot], *higher_is_better) {
                    rows.push(Row::new(city, format!("slot {slot}"), metric, "%", pct));
                }
            }
        }
    }
    rows
}
