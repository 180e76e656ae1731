//! Fig. 4(a): cumulative distribution of the percentile rank of the order
//! assigned to each vehicle by Kuhn–Munkres, ranked by network distance from
//! the vehicle to the order's restaurant.
//!
//! This is the measurement that motivates the best-first sparsification of
//! Algorithm 2: in the paper ~95% of assignments fall within the closest 10%
//! of orders.

use crate::harness::ExperimentContext;
use crate::ledger::Row;
use foodmatch_core::{DispatchConfig, DispatchPolicy, KuhnMunkresPolicy, WindowSnapshot};
use foodmatch_core::{VehicleId, VehicleSnapshot};
use foodmatch_roadnet::ShortestPathEngine;
use foodmatch_workload::{CityId, Scenario};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::SeedableRng;

/// Runs KM over the windows of a City B lunch period (vehicles redrawn at
/// random positions each window) and returns the CDF of assignment
/// percentile ranks at 10%-wide buckets, and the number of assignments.
pub fn run(ctx: &ExperimentContext) -> Vec<Row> {
    let scenario = Scenario::generate(CityId::B, ctx.comparison_options());
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    let config =
        DispatchConfig { accumulation_window: scenario.city.preset.delta, ..Default::default() };
    let delta = config.accumulation_window;
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x4a4a);
    let nodes: Vec<_> = scenario.city.network.node_ids().collect();
    let mut policy = KuhnMunkresPolicy::new();

    let mut ranks: Vec<f64> = Vec::new();
    let mut window_start = scenario.options.start;
    while window_start < scenario.options.end {
        let window_end = window_start + delta;
        let orders: Vec<_> = scenario
            .orders
            .iter()
            .filter(|o| o.placed_at >= window_start && o.placed_at < window_end)
            .copied()
            .collect();
        window_start = window_end;
        if orders.len() < 2 {
            continue;
        }
        let vehicles: Vec<VehicleSnapshot> = (0..scenario.vehicle_starts.len())
            .map(|i| {
                VehicleSnapshot::idle(VehicleId(i as u32), *nodes.choose(&mut rng).expect("nodes"))
            })
            .collect();
        let window = WindowSnapshot::new(window_end, orders.clone(), vehicles.clone());
        let outcome = policy.assign(&window, &engine, &config);

        for assignment in &outcome.assignments {
            let vehicle = window.vehicle(assignment.vehicle).expect("vehicle in window");
            // Rank every window order by network distance from this vehicle.
            let mut distances: Vec<(f64, foodmatch_core::OrderId)> = orders
                .iter()
                .map(|o| {
                    let d = engine
                        .travel_time(vehicle.location, o.restaurant, window.time)
                        .map(|d| d.as_secs_f64())
                        .unwrap_or(f64::INFINITY);
                    (d, o.id)
                })
                .collect();
            distances.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            for &assigned in &assignment.orders {
                let rank = distances.iter().position(|&(_, id)| id == assigned).unwrap_or(0);
                ranks.push(100.0 * rank as f64 / orders.len() as f64);
            }
        }
    }

    if ranks.is_empty() {
        return Vec::new();
    }
    let mut rows: Vec<Row> = (10..=100)
        .step_by(10)
        .map(|bucket| {
            let covered = ranks.iter().filter(|&&r| r <= bucket as f64).count();
            let pct = 100.0 * covered as f64 / ranks.len() as f64;
            Row::new(CityId::B, format!("rank<={bucket}%"), "assignments_pct", "%", pct)
        })
        .collect();
    rows.push(Row::new(CityId::B, "all", "assignments", "count", ranks.len() as f64));
    rows
}
