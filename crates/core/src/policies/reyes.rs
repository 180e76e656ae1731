//! A Reyes-et-al.-style baseline (§I-A and §V-C of the paper).
//!
//! Reyes et al. solve the meal-delivery routing problem with two simplifying
//! assumptions the paper criticises:
//!
//! 1. distances between locations are *Haversine* (straight-line) distances
//!    divided by an assumed speed, ignoring the road network entirely;
//! 2. orders may be batched only when they originate from the *same
//!    restaurant*.
//!
//! This policy reproduces those decisions on top of the same matching
//! machinery: orders are grouped per restaurant into batches of at most
//! `MAXO` orders / `MAXI` items, the batch–vehicle cost is estimated from
//! straight-line geometry, and a minimum-weight matching decides the
//! assignment. Because the *estimates* ignore the actual network, the routes
//! the vehicles then drive (always on the network) are systematically worse
//! than what the estimate promised — which is exactly the behaviour the
//! paper's Fig. 6(b) attributes to this baseline.

use crate::config::DispatchConfig;
use crate::order::Order;
use crate::policies::{outcome_from_assignments, DispatchPolicy};
use crate::window::{AssignmentOutcome, VehicleAssignment, WindowSnapshot};
use foodmatch_matching::SparseCostMatrix;
use foodmatch_roadnet::{haversine_meters, ShortestPathEngine};
use std::collections::BTreeMap;

/// Assumed straight-line travel speed (m/s) used by the baseline's cost
/// estimates: roughly 30 km/h, a typical courier assumption.
const ASSUMED_SPEED_MPS: f64 = 8.3;

/// The Reyes-style baseline policy.
#[derive(Debug, Default, Clone)]
pub struct ReyesPolicy {
    _private: (),
}

impl ReyesPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        ReyesPolicy { _private: () }
    }
}

impl DispatchPolicy for ReyesPolicy {
    fn name(&self) -> &'static str {
        "Reyes"
    }

    fn assign(
        &mut self,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
    ) -> AssignmentOutcome {
        if window.orders.is_empty() || window.vehicles.is_empty() {
            return AssignmentOutcome::all_unassigned(window);
        }
        let network = engine.network();

        // Same-restaurant batching only: group orders per restaurant node and
        // cut each group into capacity-feasible chunks.
        let mut by_restaurant: BTreeMap<foodmatch_roadnet::NodeId, Vec<&Order>> = BTreeMap::new();
        for order in &window.orders {
            by_restaurant.entry(order.restaurant).or_default().push(order);
        }
        let mut batches: Vec<Vec<&Order>> = Vec::new();
        for (_, group) in by_restaurant {
            let mut current: Vec<&Order> = Vec::new();
            let mut items = 0u32;
            for order in group {
                let overflows = current.len() + 1 > config.max_orders_per_vehicle
                    || items + order.items > config.max_items_per_vehicle;
                if overflows && !current.is_empty() {
                    batches.push(std::mem::take(&mut current));
                    items = 0;
                }
                items += order.items;
                current.push(order);
            }
            if !current.is_empty() {
                batches.push(current);
            }
        }

        // Straight-line cost estimate of serving a batch with a vehicle;
        // infeasible pairs stay implicit Ω entries so the solver
        // sees the same sparse structure the FoodGraph produces.
        let omega = config.rejection_penalty_secs;
        let mut costs = SparseCostMatrix::new(batches.len(), window.vehicles.len(), omega);
        for (row, batch) in batches.iter().enumerate() {
            for (col, vehicle) in window.vehicles.iter().enumerate() {
                let extra: Vec<Order> = batch.iter().map(|&&o| o).collect();
                if !vehicle.can_take(&extra, config) {
                    continue;
                }
                let vehicle_pos = network.position(vehicle.location);
                let restaurant_pos = network.position(batch[0].restaurant);
                let first_mile = haversine_meters(vehicle_pos, restaurant_pos) / ASSUMED_SPEED_MPS;
                if first_mile > config.max_first_mile.as_secs_f64() {
                    continue;
                }
                // Last mile estimate: serve customers in the order given,
                // straight-line leg by leg.
                let mut last_mile = 0.0;
                let mut cursor = restaurant_pos;
                for order in batch.iter() {
                    let customer_pos = network.position(order.customer);
                    last_mile += haversine_meters(cursor, customer_pos) / ASSUMED_SPEED_MPS;
                    cursor = customer_pos;
                }
                let prep = batch.iter().map(|o| o.prep_time.as_secs_f64()).fold(0.0, f64::max);
                let estimate = (first_mile.max(prep) + last_mile).min(omega);
                if estimate < omega {
                    costs.set(row, col, estimate);
                }
            }
        }

        let matching = config.build_solver().solve(&costs);
        let assignments: Vec<VehicleAssignment> = matching
            .pairs()
            .filter(|&(row, col)| costs.get(row, col) < omega)
            .map(|(row, col)| VehicleAssignment {
                vehicle: window.vehicles[col].id,
                orders: batches[row].iter().map(|o| o.id).collect(),
            })
            .collect();
        outcome_from_assignments(window, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderId;
    use crate::vehicle::{VehicleId, VehicleSnapshot};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, Duration, NodeId, TimePoint};

    fn setup() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(8, 8).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn order(id: u64, r: NodeId, c: NodeId, t: TimePoint) -> Order {
        Order::new(OrderId(id), r, c, t, 1, Duration::from_mins(6.0))
    }

    #[test]
    fn same_restaurant_orders_are_batched_together() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(2, 2), b.node_at(5, 5), t),
                order(2, b.node_at(2, 2), b.node_at(5, 6), t),
            ],
            vec![VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0))],
        );
        let outcome = ReyesPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        assert_eq!(outcome.assignments.len(), 1);
        assert_eq!(outcome.assignments[0].orders.len(), 2);
    }

    #[test]
    fn different_restaurants_are_never_batched() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        // Two orders from adjacent but distinct restaurants: FoodMatch would
        // happily batch them, Reyes must not.
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(2, 2), b.node_at(5, 5), t),
                order(2, b.node_at(2, 3), b.node_at(5, 6), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(7, 7)),
            ],
        );
        let outcome = ReyesPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        assert!(outcome.assignments.iter().all(|a| a.orders.len() == 1));
        assert_eq!(outcome.assigned_order_count(), 2);
    }

    #[test]
    fn same_restaurant_chunks_respect_maxo() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let orders: Vec<Order> =
            (0..7).map(|i| order(i, b.node_at(3, 3), b.node_at(6, (i % 4) as usize), t)).collect();
        let window = WindowSnapshot::new(
            t,
            orders,
            (0..4).map(|i| VehicleSnapshot::idle(VehicleId(i), b.node_at(i as usize, 0))).collect(),
        );
        let config = DispatchConfig::default();
        let outcome = ReyesPolicy::new().assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        for assignment in &outcome.assignments {
            assert!(assignment.orders.len() <= config.max_orders_per_vehicle);
        }
        // 7 orders need ceil(7/3) = 3 batches; with 4 vehicles all must be served.
        assert_eq!(outcome.assigned_order_count(), 7);
    }

    #[test]
    fn capacity_violations_get_omega_and_stay_unassigned() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut full = VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0));
        full.committed = (0..3)
            .map(|i| crate::route::PlannedOrder {
                order: order(50 + i, b.node_at(0, 1), b.node_at(0, 2), t),
                picked_up: true,
            })
            .collect();
        let window =
            WindowSnapshot::new(t, vec![order(1, b.node_at(4, 4), b.node_at(5, 5), t)], vec![full]);
        let outcome = ReyesPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        assert_eq!(outcome.assigned_order_count(), 0);
    }
}
