//! Quickstart: build a tiny synthetic city, place a handful of orders, and
//! dispatch them with FOODMATCH.
//!
//! ```text
//! cargo run --release -p integration-tests --example quickstart
//! ```

use foodmatch_core::{
    DispatchConfig, DispatchPolicy, FoodMatchPolicy, Order, OrderId, VehicleId, VehicleSnapshot,
    WindowSnapshot,
};
use foodmatch_roadnet::generators::GridCityBuilder;
use foodmatch_roadnet::{Duration, ShortestPathEngine, TimePoint};

fn main() {
    // 1. A 10×10 Manhattan-style grid with the default congestion profile.
    let grid = GridCityBuilder::new(10, 10);
    let network = grid.build();
    println!("Road network: {} nodes, {} edges", network.node_count(), network.edge_count());
    let engine = ShortestPathEngine::cached(network);

    // 2. One accumulation window's worth of orders (12:30, lunch rush).
    let t = TimePoint::from_hms(12, 30, 0);
    let orders = vec![
        Order::new(
            OrderId(1),
            grid.node_at(2, 2),
            grid.node_at(7, 3),
            t,
            2,
            Duration::from_mins(9.0),
        ),
        Order::new(
            OrderId(2),
            grid.node_at(2, 2),
            grid.node_at(8, 4),
            t,
            1,
            Duration::from_mins(11.0),
        ),
        Order::new(
            OrderId(3),
            grid.node_at(5, 8),
            grid.node_at(1, 8),
            t,
            3,
            Duration::from_mins(7.0),
        ),
        Order::new(
            OrderId(4),
            grid.node_at(6, 1),
            grid.node_at(9, 9),
            t,
            1,
            Duration::from_mins(12.0),
        ),
    ];
    let vehicles = vec![
        VehicleSnapshot::idle(VehicleId(0), grid.node_at(0, 0)),
        VehicleSnapshot::idle(VehicleId(1), grid.node_at(9, 9)),
        VehicleSnapshot::idle(VehicleId(2), grid.node_at(4, 5)),
    ];
    let window = WindowSnapshot::new(t, orders, vehicles);

    // 3. Run the FOODMATCH pipeline: batching → sparsified FoodGraph →
    //    Kuhn–Munkres matching.
    let config = DispatchConfig::default();
    let mut policy = FoodMatchPolicy::new();
    let outcome = policy.assign(&window, &engine, &config);

    println!("\nAssignments (policy = {}):", policy.name());
    for assignment in &outcome.assignments {
        let orders: Vec<String> = assignment.orders.iter().map(|o| o.to_string()).collect();
        println!("  {} <- [{}]", assignment.vehicle, orders.join(", "));
    }
    if outcome.unassigned.is_empty() {
        println!("  (no orders left unassigned)");
    } else {
        println!("  unassigned: {:?}", outcome.unassigned);
    }
    let stats = policy.last_stats();
    println!(
        "\nPipeline stats: {} batches ({} merges), {} marginal-cost evaluations, {} matched",
        stats.batches, stats.merges, stats.foodgraph_evaluations, stats.matched_batches
    );
}
