//! The vanilla Kuhn–Munkres policy of §IV-A.
//!
//! Orders are *not* batched: the FoodGraph has one row per order and one
//! column per vehicle, every edge weight is computed (no best-first
//! sparsification), and the minimum-weight matching of the complete bipartite
//! graph decides the window's assignment. Pairs whose matched edge carries
//! the rejection penalty Ω are treated as unassigned — matching an order to a
//! vehicle it cannot feasibly serve would be worse than letting it wait for
//! the next window.
//!
//! The matching itself routes through
//! [`DispatchConfig::build_solver`]: infeasible pairs stay implicit Ω entries
//! of a [`SparseCostMatrix`], which the solver skips entirely — at the same
//! total cost as the classic full-matrix Kuhn–Munkres run.

use crate::config::DispatchConfig;
use crate::cost::marginal_cost;
use crate::policies::{outcome_from_assignments, DispatchPolicy};
use crate::window::{AssignmentOutcome, VehicleAssignment, WindowSnapshot};
use foodmatch_matching::SparseCostMatrix;
use foodmatch_roadnet::ShortestPathEngine;

/// The vanilla Kuhn–Munkres assignment policy (§IV-A).
#[derive(Debug, Default, Clone)]
pub struct KuhnMunkresPolicy {
    _private: (),
}

impl KuhnMunkresPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        KuhnMunkresPolicy { _private: () }
    }
}

impl DispatchPolicy for KuhnMunkresPolicy {
    fn name(&self) -> &'static str {
        "KM"
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

        let omega = config.rejection_penalty_secs;
        let mut costs = SparseCostMatrix::new(window.orders.len(), window.vehicles.len(), omega);
        for (row, order) in window.orders.iter().enumerate() {
            for (col, vehicle) in window.vehicles.iter().enumerate() {
                let weight = marginal_cost(vehicle, &[*order], engine, window.time, config)
                    .edge_weight(config);
                if weight < omega {
                    costs.set(row, col, weight);
                }
            }
        }
        let matching = config.build_solver().solve(&costs);

        let assignments: Vec<VehicleAssignment> = matching
            .pairs()
            .filter(|&(row, col)| costs.get(row, col) < omega)
            .map(|(row, col)| VehicleAssignment {
                vehicle: window.vehicles[col].id,
                orders: vec![window.orders[row].id],
            })
            .collect();
        outcome_from_assignments(window, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{Order, OrderId};
    use crate::policies::GreedyPolicy;
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

    /// Sums the marginal costs of an outcome's assignments against the
    /// original (unloaded) vehicles — the global objective KM minimises.
    fn outcome_cost(
        outcome: &AssignmentOutcome,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
    ) -> f64 {
        outcome
            .assignments
            .iter()
            .map(|a| {
                let vehicle = window.vehicle(a.vehicle).unwrap();
                let orders: Vec<Order> =
                    a.orders.iter().map(|id| *window.order(*id).unwrap()).collect();
                marginal_cost(vehicle, &orders, engine, window.time, config)
                    .cost_secs()
                    .unwrap_or(config.rejection_penalty_secs)
            })
            .sum()
    }

    #[test]
    fn km_matches_one_order_per_vehicle() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(1, 1), b.node_at(5, 1), t),
                order(2, b.node_at(1, 6), b.node_at(5, 6), t),
                order(3, b.node_at(4, 4), b.node_at(7, 7), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 7)),
            ],
        );
        let outcome = KuhnMunkresPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        // Perfect matching on min(|orders|, |vehicles|) = 2 pairs, each of
        // exactly one order (no batching in vanilla KM).
        assert_eq!(outcome.assigned_order_count(), 2);
        assert!(outcome.assignments.iter().all(|a| a.orders.len() == 1));
        assert_eq!(outcome.unassigned.len(), 1);
    }

    #[test]
    fn km_never_costs_more_than_greedy_on_single_order_windows() {
        // With one order per vehicle and no batching effects the KM matching
        // optimises exactly the sum of pairwise marginal costs, so it can
        // never be worse than Greedy's sequential choices (paper Example 5/6).
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let config = DispatchConfig::default();
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(0, 2), b.node_at(0, 6), t),
                order(2, b.node_at(2, 0), b.node_at(6, 0), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(1, 1)),
            ],
        );
        let km = KuhnMunkresPolicy::new().assign(&window, &engine, &config);
        let greedy = GreedyPolicy::new().assign(&window, &engine, &config);
        km.validate(&window).unwrap();
        greedy.validate(&window).unwrap();
        let km_cost = outcome_cost(&km, &window, &engine, &config);
        let greedy_cost = outcome_cost(&greedy, &window, &engine, &config);
        assert!(
            km_cost <= greedy_cost + 1e-6,
            "KM pairwise cost {km_cost} should not exceed Greedy {greedy_cost}"
        );
    }

    #[test]
    fn km_leaves_infeasible_orders_unassigned() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        // A vehicle already at full order capacity cannot take anything.
        let mut full = VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0));
        full.committed = (0..3)
            .map(|i| crate::vehicle::CommittedOrder {
                order: order(100 + i, b.node_at(0, 1), b.node_at(0, 2), t),
                picked_up: true,
            })
            .collect();
        let window =
            WindowSnapshot::new(t, vec![order(1, b.node_at(1, 1), b.node_at(2, 2), t)], vec![full]);
        let outcome = KuhnMunkresPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        assert_eq!(outcome.assigned_order_count(), 0);
        assert_eq!(outcome.unassigned, vec![OrderId(1)]);
    }

    #[test]
    fn empty_window_is_a_noop() {
        let (engine, _) = setup();
        let window = WindowSnapshot::new(TimePoint::from_hms(12, 0, 0), vec![], vec![]);
        let outcome = KuhnMunkresPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        assert!(outcome.assignments.is_empty());
        assert!(outcome.unassigned.is_empty());
    }
}
