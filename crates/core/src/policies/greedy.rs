//! The Greedy baseline of §III.
//!
//! Orders accumulated over a window are assigned one at a time: at every step
//! the unassigned order / vehicle pair with the smallest marginal cost
//! (Definition 9) is committed, the chosen vehicle's tentative load is
//! updated, and its costs against the remaining orders are recomputed. The
//! loop ends when no feasible pair remains.
//!
//! This is exactly the locally-optimal strategy the paper uses as its main
//! baseline: it can batch orders implicitly (a vehicle may win several
//! orders in one window) but each decision ignores its effect on later ones.

use crate::config::DispatchConfig;
use crate::cost::marginal_cost;
use crate::order::Order;
use crate::policies::{outcome_from_assignments, DispatchPolicy};
use crate::vehicle::{CommittedOrder, VehicleSnapshot};
use crate::window::{AssignmentOutcome, VehicleAssignment, WindowSnapshot};
use foodmatch_roadnet::ShortestPathEngine;
use std::collections::BTreeMap;

/// The Greedy assignment policy (§III).
#[derive(Debug, Default, Clone)]
pub struct GreedyPolicy {
    _private: (),
}

impl GreedyPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyPolicy { _private: () }
    }
}

impl DispatchPolicy for GreedyPolicy {
    fn name(&self) -> &'static str {
        "Greedy"
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

        let orders: Vec<Order> = window.orders.clone();
        // Working copies of the vehicles accumulate tentative assignments so
        // that later marginal costs see the earlier decisions.
        let mut working: Vec<VehicleSnapshot> = window.vehicles.clone();
        let mut assigned_orders: Vec<bool> = vec![false; orders.len()];
        // costs[o][v] = Some(mCost) when feasible.
        let mut costs: Vec<Vec<Option<f64>>> = orders
            .iter()
            .map(|order| {
                working
                    .iter()
                    .map(|vehicle| {
                        marginal_cost(vehicle, &[*order], engine, window.time, config).cost_secs()
                    })
                    .collect()
            })
            .collect();

        // BTreeMap so the assignment emission order is the vehicle index
        // order, independent of hasher state (the output stream is golden-
        // pinned; see `nondeterministic-iteration` in crates/clippy.toml).
        let mut per_vehicle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        loop {
            // Find the feasible (order, vehicle) pair with minimum marginal cost.
            let mut best: Option<(f64, usize, usize)> = None;
            for (oi, row) in costs.iter().enumerate() {
                if assigned_orders[oi] {
                    continue;
                }
                for (vi, cell) in row.iter().enumerate() {
                    if let Some(cost) = cell {
                        if best.is_none_or(|(b, _, _)| *cost < b) {
                            best = Some((*cost, oi, vi));
                        }
                    }
                }
            }
            let Some((_, oi, vi)) = best else { break };

            assigned_orders[oi] = true;
            per_vehicle.entry(vi).or_default().push(oi);
            working[vi].committed.push(CommittedOrder { order: orders[oi], picked_up: false });

            // The chosen vehicle's marginal costs against the remaining
            // orders change; everything else is untouched.
            for (orow, order) in orders.iter().enumerate() {
                if !assigned_orders[orow] {
                    costs[orow][vi] =
                        marginal_cost(&working[vi], &[*order], engine, window.time, config)
                            .cost_secs();
                }
            }
        }

        let assignments: Vec<VehicleAssignment> = per_vehicle
            .into_iter()
            .map(|(vi, order_indices)| VehicleAssignment {
                vehicle: window.vehicles[vi].id,
                orders: order_indices.into_iter().map(|oi| orders[oi].id).collect(),
            })
            .collect();
        outcome_from_assignments(window, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderId;
    use crate::vehicle::VehicleId;
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
    fn assigns_each_order_to_the_nearby_vehicle_when_supply_is_ample() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(0, 1), b.node_at(0, 5), t),
                order(2, b.node_at(7, 1), b.node_at(7, 5), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(7, 0)),
            ],
        );
        let outcome = GreedyPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        assert_eq!(outcome.assigned_order_count(), 2);
        // The northern vehicle should take the northern order and vice versa.
        for assignment in &outcome.assignments {
            match assignment.vehicle {
                VehicleId(0) => assert_eq!(assignment.orders, vec![OrderId(1)]),
                VehicleId(1) => assert_eq!(assignment.orders, vec![OrderId(2)]),
                other => panic!("unexpected vehicle {other}"),
            }
        }
    }

    #[test]
    fn one_vehicle_accumulates_orders_up_to_capacity() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let orders: Vec<Order> =
            (0..5).map(|i| order(i, b.node_at(1, 1), b.node_at(2, 2), t)).collect();
        let window = WindowSnapshot::new(
            t,
            orders,
            vec![VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0))],
        );
        let outcome = GreedyPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        // MAXO = 3 caps the single vehicle's load; the other two stay unassigned.
        assert_eq!(outcome.assigned_order_count(), 3);
        assert_eq!(outcome.unassigned.len(), 2);
    }

    #[test]
    fn empty_window_assigns_nothing() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let window = WindowSnapshot::new(
            t,
            vec![],
            vec![VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0))],
        );
        let outcome = GreedyPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        assert!(outcome.assignments.is_empty());
        assert!(outcome.unassigned.is_empty());
    }

    #[test]
    fn greedy_is_locally_optimal_for_its_first_pick() {
        // The first committed pair must be the globally cheapest single
        // (order, vehicle) marginal cost — the defining property of Greedy.
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let config = DispatchConfig::default();
        let o_near = order(1, b.node_at(0, 1), b.node_at(0, 4), t);
        let o_far = order(2, b.node_at(5, 5), b.node_at(5, 7), t);
        let window = WindowSnapshot::new(
            t,
            vec![o_far, o_near],
            vec![VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0))],
        );
        let outcome = GreedyPolicy::new().assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        let winner = &outcome.assignments[0];
        // The near order has the smaller first mile, so it must be in the
        // vehicle's batch (the far one may join afterwards if feasible).
        assert!(winner.orders.contains(&OrderId(1)));
    }
}
