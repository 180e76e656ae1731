//! Table II: summary of the (synthetic) order-history datasets.

use crate::harness::ExperimentContext;
use crate::ledger::Row;
use foodmatch_workload::{Scenario, ScenarioOptions};

/// One line per city preset: restaurants, vehicles, orders/day, mean prep
/// time, road-network nodes and edges — the columns of Table II.
pub fn run(ctx: &ExperimentContext) -> Vec<Row> {
    let mut rows = Vec::new();
    for city in ctx.all_cities() {
        let stats = Scenario::generate(city, ScenarioOptions::full_day(ctx.seed)).table2_row();
        let mut push =
            |metric, unit, value| rows.push(Row::new(city, "preset", metric, unit, value));
        push("restaurants", "count", stats.restaurants as f64);
        push("vehicles", "count", stats.vehicles as f64);
        push("orders_per_day", "count", stats.orders as f64);
        push("avg_prep_mins", "min", stats.avg_prep_mins);
        push("nodes", "count", stats.nodes as f64);
        push("edges", "count", stats.edges as f64);
    }
    rows
}
