//! Table II: summary of the (synthetic) order-history datasets.

use crate::harness::ExperimentContext;
use foodmatch_workload::{Scenario, ScenarioOptions};

/// Prints one row per city preset: restaurants, vehicles, orders/day, mean
/// prep time, road-network nodes and edges — the columns of Table II.
pub fn run(ctx: &ExperimentContext) {
    crate::harness::header("Table II — dataset summary (synthetic presets)");
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>16} {:>8} {:>8}",
        "City", "# Rest.", "# Vehicles", "# Orders/day", "Prep (avg min)", "# Nodes", "# Edges"
    );
    for city in ctx.all_cities() {
        let scenario = Scenario::generate(city, ScenarioOptions::full_day(ctx.seed));
        let row = scenario.table2_row();
        println!(
            "{:<10} {:>8} {:>10} {:>12} {:>16.2} {:>8} {:>8}",
            city.name(),
            row.restaurants,
            row.vehicles,
            row.orders,
            row.avg_prep_mins,
            row.nodes,
            row.edges
        );
    }
    println!();
    println!("(Volumes are scaled ≈1/50 of the paper's Table II; proportions and");
    println!(" prep-time means match the paper — see crates/workload/src/city.rs.)");
}
