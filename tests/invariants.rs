//! Randomised tests for the core invariants the paper's algorithms rely on.
//!
//! These were originally property-based tests written with `proptest`; the
//! offline build environment cannot vendor proptest's macro stack, so each
//! property is exercised the same way with an explicit seeded-RNG case loop
//! (deterministic across runs, failures print the offending case).

use foodmatch_core::route::{plan_optimal_route, plan_optimal_route_free_start, PlannedOrder};
use foodmatch_core::{batch_orders, DispatchConfig, Order, OrderId};
use foodmatch_roadnet::generators::GridCityBuilder;
use foodmatch_roadnet::{
    angular_distance, dijkstra, CongestionProfile, GeoPoint, NodeId, ShortestPathEngine, TimePoint,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of random cases per property (matches the proptest configuration
/// this file previously used).
const CASES: usize = 48;

fn test_grid() -> (foodmatch_roadnet::RoadNetwork, GridCityBuilder) {
    let builder =
        GridCityBuilder::new(6, 6).congestion(CongestionProfile::metropolitan()).major_every(3);
    (builder.build(), builder)
}

/// Shortest-path travel times satisfy the triangle inequality, and the
/// engine agrees bit for bit with the memo-free search and its path.
#[test]
fn shortest_paths_satisfy_triangle_inequality() {
    let (network, _) = test_grid();
    let engine = ShortestPathEngine::cached(network.clone());
    let mut rng = StdRng::seed_from_u64(0xF00D_0002);
    for case in 0..CASES {
        let hour = rng.random_range(0u32..24);
        let t = TimePoint::from_hms(hour, 15, 0);
        let a = NodeId(rng.random_range(0u32..36));
        let b = NodeId(rng.random_range(0u32..36));
        let c = NodeId(rng.random_range(0u32..36));
        let ab = engine.travel_time(a, b, t).unwrap().as_secs_f64();
        let bc = engine.travel_time(b, c, t).unwrap().as_secs_f64();
        let ac = engine.travel_time(a, c, t).unwrap().as_secs_f64();
        // `ab + bc` rounds once more than the search's own sums do.
        assert!(
            ac <= ab + bc + 1e-6,
            "case {case}: triangle inequality violated: {ac} > {ab} + {bc}"
        );
        let reference = dijkstra::shortest_travel_time(&network, a, b, t).unwrap();
        assert_eq!(reference.as_secs_f64().to_bits(), ab.to_bits(), "case {case}");
        // Dijkstra path reconstruction agrees with the distance.
        let path = dijkstra::shortest_path(&network, a, b, t).unwrap();
        assert_eq!(path.travel_time.as_secs_f64().to_bits(), ab.to_bits(), "case {case}");
    }
}

/// Angular distance is always within [0, 1].
#[test]
fn angular_distance_is_bounded() {
    let mut rng = StdRng::seed_from_u64(0xF00D_0003);
    for case in 0..CASES {
        let mut point =
            || GeoPoint::new(rng.random_range(-60.0f64..60.0), rng.random_range(-170.0f64..170.0));
        let d = angular_distance(point(), point(), point());
        assert!((0.0..=1.0).contains(&d), "case {case}: angular distance {d} out of range");
    }
}

/// The optimal route plan always respects pickup-before-drop-off and its
/// cost never beats the free-start plan for the same orders (Theorem 2's
/// building block).
#[test]
fn route_plans_respect_precedence_and_free_start_is_cheaper() {
    let (network, grid) = test_grid();
    let engine = ShortestPathEngine::cached(network);
    let t = TimePoint::from_hms(13, 0, 0);
    let mut rng = StdRng::seed_from_u64(0xF00D_0004);
    for case in 0..CASES {
        let order_count = rng.random_range(2usize..4);
        let orders: Vec<PlannedOrder> = (0..order_count)
            .map(|i| {
                let (r, c) = (rng.random_range(0usize..6), rng.random_range(0usize..6));
                let restaurant = grid.node_at(r, c);
                let customer = grid.node_at(5 - r, 5 - c);
                // Skip degenerate orders whose restaurant equals the customer.
                let customer =
                    if customer == restaurant { grid.node_at((r + 1) % 6, c) } else { customer };
                PlannedOrder::pending(Order::new(
                    OrderId(i as u64),
                    restaurant,
                    customer,
                    t,
                    1,
                    foodmatch_roadnet::Duration::from_mins(6.0),
                ))
            })
            .collect();
        let start = grid.node_at(rng.random_range(0usize..6), rng.random_range(0usize..6));
        let anchored = plan_optimal_route(start, t, &orders, &engine).unwrap();
        assert!(anchored.plan.validate(&orders).is_ok(), "case {case}: invalid anchored plan");
        assert!(anchored.cost_secs >= -1e-6, "case {case}");

        let free = plan_optimal_route_free_start(t, &orders, &engine).unwrap();
        assert!(free.plan.validate(&orders).is_ok(), "case {case}: invalid free-start plan");
        // Removing the first mile can only help.
        assert!(
            free.cost_secs <= anchored.cost_secs + 1e-6,
            "case {case}: free-start plan {} costs more than anchored {}",
            free.cost_secs,
            anchored.cost_secs
        );
    }
}

/// Batching preserves every order exactly once, respects MAXO/MAXI, and its
/// final average cost decomposition is consistent (Theorem 2: the total
/// never drops below the sum of singleton costs, which is zero).
#[test]
fn batching_preserves_orders_and_capacity() {
    let (network, grid) = test_grid();
    let engine = ShortestPathEngine::cached(network);
    let t = TimePoint::from_hms(13, 0, 0);
    let config = DispatchConfig::default();
    let mut rng = StdRng::seed_from_u64(0xF00D_0005);
    for case in 0..CASES {
        let order_count = rng.random_range(2usize..7);
        let orders: Vec<Order> = (0..order_count)
            .map(|i| {
                let (r, c) = (rng.random_range(0usize..6), rng.random_range(0usize..6));
                let items = rng.random_range(1u32..4);
                let restaurant = grid.node_at(r, c);
                let mut customer = grid.node_at(5 - r, c);
                if customer == restaurant {
                    customer = grid.node_at(r, (c + 3) % 6);
                }
                Order::new(
                    OrderId(i as u64),
                    restaurant,
                    customer,
                    t,
                    items,
                    foodmatch_roadnet::Duration::from_mins(7.0),
                )
            })
            .collect();
        let outcome = batch_orders(&orders, &engine, t, &config);
        let mut seen: Vec<u64> = outcome
            .batches
            .iter()
            .flat_map(|b| b.orders.iter().map(|o| o.id.0))
            .chain(outcome.unplannable.iter().map(|o| o.id.0))
            .collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = orders.iter().map(|o| o.id.0).collect();
        expected.sort_unstable();
        assert_eq!(seen, expected, "case {case}: orders lost or duplicated by batching");
        for batch in &outcome.batches {
            assert!(batch.len() <= config.max_orders_per_vehicle, "case {case}");
            assert!(batch.total_items() <= config.max_items_per_vehicle, "case {case}");
            assert!(batch.cost_secs() >= -1e-6, "case {case}: negative batch cost");
        }
        assert!(outcome.final_avg_cost_secs >= -1e-6, "case {case}");
    }
}
