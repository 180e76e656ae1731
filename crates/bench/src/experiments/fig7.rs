//! Figure 7: the ablation study (a) and the fleet-size study (b–e).

use crate::harness::{improvement_pct, report_rows, run_city, sweep, ExperimentContext};
use crate::ledger::Row;
use foodmatch_core::{DispatchConfig, PolicyKind};

/// Fig. 7(a): layered ablation — Batching & Reshuffling (B&R), plus
/// best-first sparsification (BFS), plus angular distance (A) — each
/// variant's standard rows and its XDT improvement over vanilla KM.
pub fn fig7a(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.swiggy_cities() {
        // All variants run on the same scenario; only the config toggles vary.
        let km = run_city(city, ctx.comparison_options(), PolicyKind::KuhnMunkres, |c| c);
        rows.extend(report_rows(city, "KM", &km));
        for (series, use_bfs, use_angular) in
            [("B&R", false, false), ("B&R+BFS", true, false), ("B&R+BFS+A", true, true)]
        {
            let variant = run_city(city, ctx.comparison_options(), PolicyKind::FoodMatch, |c| {
                DispatchConfig {
                    use_batching: true,
                    use_reshuffle: true,
                    use_bfs_sparsification: use_bfs,
                    use_angular_distance: use_angular,
                    ..c
                }
            });
            rows.extend(report_rows(city, series, &variant));
            let gain = improvement_pct(km.xdt_hours_per_day(), variant.xdt_hours_per_day(), false);
            if let Some(pct) = gain {
                rows.push(Row::new(city, series, "xdt_improvement_pct", "%", pct));
            }
        }
    }
    rows
}

/// Fig. 7(b–e): FoodMatch with 20%–100% of the fleet on duty — XDT, O/Km,
/// waiting time and rejection rate.
pub fn fig7bcde(ctx: &ExperimentContext) -> Vec<Row> {
    let fractions: &[f64] = if ctx.quick { &[0.2, 0.6, 1.0] } else { &[0.2, 0.4, 0.6, 0.8, 1.0] };
    sweep(
        &ctx.swiggy_cities(),
        fractions,
        |f| (format!("fleet={f}"), ctx.comparison_options().with_vehicle_fraction(f)),
        |_, c| c,
        false,
    )
}
