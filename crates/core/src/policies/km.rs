//! The vanilla Kuhn–Munkres policy of §IV-A.
//!
//! Vanilla KM is the bottom rung of the FOODMATCH pipeline, not a second
//! pipeline: it runs [`FoodMatchPolicy`]'s stages under
//! [`DispatchConfig::as_vanilla_km`], so orders are *not* batched (one
//! FoodGraph row per order, one column per vehicle), every edge weight is
//! computed (no best-first sparsification, no angular distance), and the
//! minimum-weight matching of the complete bipartite graph decides the
//! window's assignment. Pairs whose matched edge carries the rejection
//! penalty Ω are treated as unassigned — matching an order to a vehicle it
//! cannot feasibly serve would be worse than letting it wait for the next
//! window. Fig. 7(a) adds batching, sparsification and angular distance back
//! on top of this rung one at a time.

use crate::config::DispatchConfig;
use crate::policies::{DispatchPolicy, FoodMatchPolicy};
use crate::window::{AssignmentOutcome, WindowSnapshot};
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
        FoodMatchPolicy::new().assign(window, engine, &config.as_vanilla_km())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::marginal_cost;
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
            .map(|i| crate::route::PlannedOrder {
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

    /// The least `Σ w(o, v) + Ω · unmatched` over every matching of the first
    /// `next..` orders to the vehicles not yet `taken` (one order a vehicle),
    /// where `w` is the `weights[order][vehicle]` edge weight.
    fn cheapest_matching(weights: &[Vec<f64>], next: usize, taken: &mut [bool], omega: f64) -> f64 {
        let Some(row) = weights.get(next) else { return 0.0 };
        let mut best = omega + cheapest_matching(weights, next + 1, taken, omega);
        for col in 0..taken.len() {
            if !taken[col] {
                taken[col] = true;
                let rest = cheapest_matching(weights, next + 1, taken, omega);
                best = best.min(row[col] + rest);
                taken[col] = false;
            }
        }
        best
    }

    /// A seeded xorshift stream for the enumeration test's windows.
    struct Draws(u64);

    impl Draws {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    #[test]
    fn km_matches_exhaustive_enumeration() {
        use crate::route::PlannedOrder;
        use foodmatch_roadnet::{GeoPoint, RoadClass, RoadNetworkBuilder};
        // A 6×6 street grid of uneven lengths, plus an island no road reaches.
        const GRID: u32 = 6;
        let mut rng = Draws(0x9e37_79b9_7f4a_7c15);
        let mut builder = RoadNetworkBuilder::new();
        for i in 0..GRID * GRID + 1 {
            let (row, col) = (f64::from(i / GRID), f64::from(i % GRID));
            builder.add_node(GeoPoint::new(0.002 * row, 0.002 * col));
        }
        let lengths = [200.0, 320.0, 470.0];
        for u in 0..GRID * GRID {
            for v in [u + 1, u + GRID] {
                if (v == u + 1 && v % GRID == 0) || v >= GRID * GRID {
                    continue;
                }
                let length = lengths[rng.below(3) as usize];
                builder.add_bidirectional(NodeId(u), NodeId(v), length, RoadClass::Local);
            }
        }
        let island = NodeId(GRID * GRID);
        let engine = ShortestPathEngine::cached(builder.build());
        let config = DispatchConfig::default();
        let omega = config.rejection_penalty_secs;
        let t = TimePoint::from_hms(12, 0, 0);
        let node = |rng: &mut Draws| NodeId(rng.below(u64::from(GRID * GRID)) as u32);
        let order_at = |rng: &mut Draws, id: u64| {
            let (restaurant, customer) = (node(rng), node(rng));
            let placed_at = t - Duration::from_mins(rng.below(6) as f64);
            let prep = Duration::from_mins(2.0 + rng.below(10) as f64);
            Order::new(OrderId(id), restaurant, customer, placed_at, 1, prep)
        };

        let (mut loaded, mut rectangular) = (0, 0);
        for window_id in 0..40 {
            let order_count = 1 + rng.below(5) as usize;
            let vehicle_count = 1 + rng.below(5) as usize;
            rectangular += usize::from(order_count != vehicle_count);
            let mut orders: Vec<Order> =
                (0..order_count).map(|i| order_at(&mut rng, i as u64)).collect();
            if window_id % 4 == 0 {
                // A customer no road reaches: Ω for every vehicle.
                orders[0].customer = island;
            }
            let mut vehicles = Vec::new();
            for i in 0..vehicle_count {
                let mut vehicle = VehicleSnapshot::idle(VehicleId(i as u32), node(&mut rng));
                // Half the fleet carries up to a full load, some of it on board.
                let load = if rng.below(2) == 0 { rng.below(4) } else { 0 };
                for j in 0..load {
                    let order = order_at(&mut rng, 100 + 10 * i as u64 + j);
                    let picked_up = rng.below(2) == 0;
                    vehicle.committed.push(PlannedOrder { order, picked_up });
                }
                loaded += usize::from(load > 0);
                vehicles.push(vehicle);
            }

            let weights: Vec<Vec<f64>> = orders
                .iter()
                .map(|o| {
                    let price = |v| marginal_cost(v, &[*o], &engine, t, &config);
                    vehicles.iter().map(|v| price(v).edge_weight(&config)).collect()
                })
                .collect();
            let window = WindowSnapshot::new(t, orders.clone(), vehicles.clone());
            let outcome = KuhnMunkresPolicy::new().assign(&window, &engine, &config);
            outcome.validate(&window).unwrap();
            let mut got = omega * outcome.unassigned.len() as f64;
            for assignment in &outcome.assignments {
                assert_eq!(assignment.orders.len(), 1, "window {window_id}: one order a vehicle");
                let row = orders.iter().position(|o| o.id == assignment.orders[0]).unwrap();
                let col = vehicles.iter().position(|v| v.id == assignment.vehicle).unwrap();
                assert!(weights[row][col] < omega, "window {window_id}: an Ω pair was assigned");
                got += weights[row][col];
            }
            let want = cheapest_matching(&weights, 0, &mut vec![false; vehicle_count], omega);
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "window {window_id}: {got} vs {want}"
            );
        }
        assert!(loaded >= 20 && rectangular >= 20, "{loaded} loaded, {rectangular} rectangular");
    }
}
