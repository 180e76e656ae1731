//! The full FOODMATCH pipeline (§IV-E, Fig. 5 of the paper).
//!
//! One window is processed in four stages:
//!
//! 1. **Batching** — the unassigned orders are clustered into batches by
//!    Algorithm 1 (skipped when `use_batching` is off, in which case every
//!    order is its own batch).
//! 2. **FoodGraph construction** — a sparse bipartite graph between batches
//!    and vehicles is built with the best-first search of Algorithm 2,
//!    using the angular-distance-aware edge weight of Eq. 8 when enabled.
//! 3. **Matching** — [`DispatchConfig::build_solver`] (the FoodGraph
//!    sharded by connected component, each shard solved by sparse
//!    Kuhn–Munkres, shards in parallel) computes the minimum-weight matching
//!    directly on the sparse FoodGraph; matched pairs whose edge carries Ω
//!    are discarded. The Ω entries are never materialised.
//! 4. **Reshuffling** (§IV-D2) happens outside the policy: when
//!    [`DispatchPolicy::uses_reshuffling`] returns true the driving loop puts
//!    assigned-but-not-picked-up orders back into the window snapshot, so
//!    this policy simply treats them as ordinary unassigned orders.
//!
//! Every optimisation is individually toggleable through
//! [`DispatchConfig`], which is what the ablation experiment (Fig. 7(a))
//! sweeps. With all of them off ([`DispatchConfig::as_vanilla_km`]) these
//! stages are vanilla KM, which is how `KuhnMunkresPolicy` runs.

use crate::batching::{batch_orders, BatchingOutcome};
use crate::config::DispatchConfig;
use crate::foodgraph::build_food_graph;
use crate::policies::{outcome_from_assignments, DispatchPolicy};
use crate::window::{AssignmentOutcome, VehicleAssignment, WindowSnapshot};
use foodmatch_roadnet::ShortestPathEngine;

/// Statistics of the last processed window, useful for instrumentation and
/// the scalability experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FoodMatchStats {
    /// Number of batches produced by the clustering stage.
    pub batches: usize,
    /// Number of merges the clustering performed.
    pub merges: usize,
    /// Number of marginal-cost evaluations spent building the FoodGraph.
    pub foodgraph_evaluations: usize,
    /// Number of batches successfully matched to a vehicle.
    pub matched_batches: usize,
}

/// The FOODMATCH assignment policy.
#[derive(Debug, Default, Clone)]
pub struct FoodMatchPolicy {
    stats: FoodMatchStats,
}

impl FoodMatchPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FoodMatchPolicy { stats: FoodMatchStats::default() }
    }

    /// Statistics of the most recently processed window.
    pub fn last_stats(&self) -> FoodMatchStats {
        self.stats
    }
}

impl DispatchPolicy for FoodMatchPolicy {
    fn name(&self) -> &'static str {
        "FoodMatch"
    }

    fn uses_reshuffling(&self, config: &DispatchConfig) -> bool {
        config.use_reshuffle
    }

    fn assign(
        &mut self,
        window: &WindowSnapshot,
        engine: &ShortestPathEngine,
        config: &DispatchConfig,
    ) -> AssignmentOutcome {
        self.stats = FoodMatchStats::default();
        if window.orders.is_empty() || window.vehicles.is_empty() {
            return AssignmentOutcome::all_unassigned(window);
        }

        // Stage 1: batching (Algorithm 1).
        let BatchingOutcome { batches, .. } =
            batch_orders(&window.orders, engine, window.time, config);
        self.stats.batches = batches.len();
        if batches.is_empty() {
            return AssignmentOutcome::all_unassigned(window);
        }

        // Stage 2: sparsified FoodGraph (Algorithm 2, Eq. 8).
        let graph = build_food_graph(&batches, &window.vehicles, engine, window.time, config);
        self.stats.foodgraph_evaluations = graph.evaluations;

        // Stage 3: minimum-weight matching directly on the sparse FoodGraph.
        let matching = config.build_solver().solve(&graph.costs);
        let omega = config.rejection_penalty_secs;

        let assignments: Vec<VehicleAssignment> = matching
            .pairs()
            .filter(|&(row, col)| graph.costs.get(row, col) < omega)
            .map(|(row, col)| VehicleAssignment {
                vehicle: graph.vehicle_ids[col],
                orders: batches[row].order_ids(),
            })
            .collect();
        self.stats.matched_batches = assignments.len();
        outcome_from_assignments(window, assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{Order, OrderId};
    use crate::policies::{GreedyPolicy, KuhnMunkresPolicy};
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
    fn batches_let_one_vehicle_serve_colocated_orders() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        // Three orders from the same restaurant, one vehicle nearby, another
        // far away: batching should allow a single vehicle to take all three
        // (vanilla KM could serve at most one per vehicle).
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(1, 1), b.node_at(4, 1), t),
                order(2, b.node_at(1, 1), b.node_at(4, 2), t),
                order(3, b.node_at(1, 1), b.node_at(4, 3), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(7, 7)),
            ],
        );
        let mut policy = FoodMatchPolicy::new();
        let outcome = policy.assign(&window, &engine, &DispatchConfig::default());
        outcome.validate(&window).unwrap();
        assert_eq!(outcome.assigned_order_count(), 3);
        let biggest = outcome.assignments.iter().map(|a| a.orders.len()).max().unwrap();
        assert_eq!(biggest, 3, "expected the three same-restaurant orders in one batch");
        assert!(policy.last_stats().batches <= 2);

        // Vanilla KM on the same window can assign at most one order per
        // vehicle — the motivating limitation of §IV-A.
        let km = KuhnMunkresPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        assert!(km.assigned_order_count() <= 2);
    }

    #[test]
    fn disabling_batching_reduces_to_singleton_batches() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let config = DispatchConfig { use_batching: false, ..Default::default() };
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(1, 1), b.node_at(4, 1), t),
                order(2, b.node_at(1, 1), b.node_at(4, 2), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(2, 2)),
            ],
        );
        let mut policy = FoodMatchPolicy::new();
        let outcome = policy.assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        assert_eq!(policy.last_stats().batches, 2);
        assert!(outcome.assignments.iter().all(|a| a.orders.len() == 1));
    }

    #[test]
    fn foodmatch_cost_is_no_worse_than_greedy_on_a_tight_window() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let config = DispatchConfig::default();
        // More orders than vehicles — the regime where global matching plus
        // batching pays off.
        let window = WindowSnapshot::new(
            t,
            vec![
                order(1, b.node_at(1, 1), b.node_at(5, 1), t),
                order(2, b.node_at(1, 2), b.node_at(5, 2), t),
                order(3, b.node_at(6, 6), b.node_at(2, 6), t),
                order(4, b.node_at(6, 5), b.node_at(2, 5), t),
            ],
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(7, 7)),
            ],
        );
        let fm = FoodMatchPolicy::new().assign(&window, &engine, &config);
        let greedy = GreedyPolicy::new().assign(&window, &engine, &config);
        fm.validate(&window).unwrap();
        greedy.validate(&window).unwrap();
        // FoodMatch must serve at least as many orders as Greedy here.
        assert!(fm.assigned_order_count() >= greedy.assigned_order_count());
    }

    #[test]
    fn every_assignment_respects_capacity() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let config = DispatchConfig::default();
        let orders: Vec<Order> = (0..8)
            .map(|i| {
                order(i, b.node_at(1 + (i % 2) as usize, 1), b.node_at(5, (i % 4) as usize), t)
            })
            .collect();
        let window = WindowSnapshot::new(
            t,
            orders,
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(3, 3)),
            ],
        );
        let outcome = FoodMatchPolicy::new().assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        for assignment in &outcome.assignments {
            assert!(assignment.orders.len() <= config.max_orders_per_vehicle);
        }
    }

    #[test]
    fn reshuffling_flag_follows_config() {
        let policy = FoodMatchPolicy::new();
        assert!(policy.uses_reshuffling(&DispatchConfig::default()));
        assert!(!policy
            .uses_reshuffling(&DispatchConfig { use_reshuffle: false, ..Default::default() }));
    }

    #[test]
    fn empty_window_is_a_noop() {
        let (engine, _) = setup();
        let window = WindowSnapshot::new(TimePoint::from_hms(12, 0, 0), vec![], vec![]);
        let outcome = FoodMatchPolicy::new().assign(&window, &engine, &DispatchConfig::default());
        assert!(outcome.assignments.is_empty());
        assert!(outcome.unassigned.is_empty());
    }

    #[test]
    fn every_solver_kind_serves_the_same_number_of_orders() {
        use foodmatch_matching::{AssignmentSolver, DenseKm};
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let orders: Vec<Order> = (0..6)
            .map(|i| order(i, b.node_at((i % 3) as usize * 2, 1), b.node_at(5, i as usize), t))
            .collect();
        let window = WindowSnapshot::new(
            t,
            orders,
            vec![
                VehicleSnapshot::idle(VehicleId(0), b.node_at(0, 0)),
                VehicleSnapshot::idle(VehicleId(1), b.node_at(7, 7)),
                VehicleSnapshot::idle(VehicleId(2), b.node_at(3, 3)),
            ],
        );
        // The policy's solver against the dense reference on the same graph.
        let config = DispatchConfig::default();
        let outcome = FoodMatchPolicy::new().assign(&window, &engine, &config);
        outcome.validate(&window).unwrap();
        let BatchingOutcome { batches, .. } = batch_orders(&window.orders, &engine, t, &config);
        let graph = build_food_graph(&batches, &window.vehicles, &engine, t, &config);
        let reference: usize = DenseKm
            .solve(&graph.costs)
            .pairs()
            .filter(|&(row, col)| graph.costs.get(row, col) < config.rejection_penalty_secs)
            .map(|(row, _)| batches[row].order_ids().len())
            .sum();
        assert!(reference > 0);
        assert_eq!(outcome.assigned_order_count(), reference);
    }
}
