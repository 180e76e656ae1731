//! The FoodGraph: the bipartite graph between order batches and vehicles
//! whose minimum-weight matching yields the window's assignment (§IV-A), with
//! the best-first sparsification of Algorithm 2 and the vehicle-sensitive
//! edge weight of Eq. 8.
//!
//! For every vehicle we explore the road network outward from the vehicle's
//! position in best-first order. With angular distance enabled, the expansion
//! order is driven by `α(v, e, t) = (1 − γ)·adist(v, u', t) + γ·β(e, t) /
//! max β` so nodes that lie in the vehicle's direction of travel are reached
//! earlier — anticipating where the vehicle will actually be by the time the
//! assignment takes effect. The expansion stops once the vehicle has acquired
//! `k` candidate batches (the degree cap); all remaining batches get an Ω
//! edge and their true marginal cost is never computed, which is where the
//! quadratic construction cost is saved.
//!
//! The first-mile bound (§V-B) prices every batch whose restaurants all lie
//! beyond `max_first_mile` of the vehicle at Ω, whatever the expansion says.
//! So the vehicle is asked the first mile *before* it expands: one gated
//! sweep over every batch it has the capacity for yields the set F of
//! batches inside the bound, and the expansion stops as soon as it has
//! reached every batch of F — or at the cap, whichever comes first. What it
//! would have reached after that fails the first mile, so the graph is the
//! one the uncut expansion gives, edge for edge; a vehicle with nothing
//! inside its first mile does not expand at all.
//!
//! A window's graph is built in three phases that share nothing but plain
//! values (`cost.rs` holds them; `marginal_cost` is the same three over one
//! vehicle): **collect** per vehicle — the vehicle's own one-to-many row,
//! capacity → first mile → `Cost(v, O_v)` over every batch, then the
//! expansion; **resolve** once — every stop → stop leg the surviving pairs
//! will read, one search per distinct stop of the window; **price** per
//! vehicle — table plans only.

use crate::batching::Batch;
use crate::config::DispatchConfig;
use crate::cost::{collect, price, resolve, Shortlist};
use crate::order::Order;
use crate::parallel_map;
use crate::vehicle::{VehicleId, VehicleSnapshot};
use foodmatch_matching::SparseCostMatrix;
use foodmatch_roadnet::dijkstra::{Expansion, Settled};
use foodmatch_roadnet::{AngularFrame, NodeId, ShortestPathEngine, TimePoint};
use std::collections::HashMap;

/// Cost discount (seconds) applied per batch order that the vehicle already
/// tentatively holds, so reshuffling prefers the incumbent vehicle on ties.
const INCUMBENCY_BONUS_SECS: f64 = 60.0;

/// The bipartite assignment graph for one accumulation window.
///
/// Rows of the cost matrix are batches, columns are vehicles, entries are
/// `min(mCost, Ω)` (Ω for pairs that were pruned or are infeasible). The
/// graph holds prices only: a priced pair's route plan is not kept, since
/// the simulator replans every vehicle it assigns to from scratch.
#[derive(Debug)]
pub struct FoodGraph {
    /// Vehicle ids in column order.
    pub vehicle_ids: Vec<VehicleId>,
    /// The (sparse) cost matrix: rows = batches, columns = vehicles.
    pub costs: SparseCostMatrix,
    /// Number of marginal-cost evaluations: per vehicle with spare capacity,
    /// the offers the expansion reached before it stopped (every batch, on
    /// the dense graph), whatever filter each then dropped out at.
    pub evaluations: usize,
}

impl FoodGraph {
    /// Number of vehicle columns.
    pub fn vehicle_count(&self) -> usize {
        self.costs.cols()
    }

    /// The edge weight between batch `row` and vehicle `col` (Ω when the
    /// pair was pruned or infeasible) — a sparse lookup, no densification.
    pub fn cost(&self, row: usize, col: usize) -> f64 {
        self.costs.get(row, col)
    }

    /// Number of explicit (finite marginal-cost) edges in the graph.
    pub fn explicit_edges(&self) -> usize {
        self.costs.explicit_entries()
    }
}

/// Builds the FoodGraph between `batches` and `vehicles` at window time `t`.
///
/// Honours the configuration's sparsification (`use_bfs_sparsification`,
/// `k_factor`) and angular-distance (`use_angular_distance`, `gamma`) flags.
/// Each phase fans out (across vehicles, across stops) with
/// [`DispatchConfig::effective_threads`] workers when the instance is large
/// enough to make the thread fan-out worthwhile; the result is identical for
/// every thread count.
pub fn build_food_graph(
    batches: &[Batch],
    vehicles: &[VehicleSnapshot],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> FoodGraph {
    let _span = foodmatch_telemetry::span("engine", "foodgraph.build");
    let vehicle_ids: Vec<VehicleId> = vehicles.iter().map(|v| v.id).collect();
    if batches.is_empty() || vehicles.is_empty() {
        let costs = SparseCostMatrix::new(
            batches.len().max(1),
            vehicles.len().max(1),
            config.rejection_penalty_secs,
        );
        return FoodGraph { vehicle_ids, costs, evaluations: 0 };
    }

    let batches_by_start = batches_by_start(batches);
    let offers: Vec<&[Order]> = batches.iter().map(|batch| batch.orders.as_slice()).collect();
    let degree_cap = config.degree_cap(batches.len(), vehicles.len());

    // Three window-level phases that share nothing but plain values. The
    // per-vehicle ones fan out across scoped workers sharing the engine; the
    // fan-out is deterministic (results placed back in input order), so
    // every thread count produces the same FoodGraph; tiny windows stay on
    // the calling thread where a spawn would cost more than the work itself.
    let worker_count = if vehicles.len() < 8 { 1 } else { config.effective_threads() };

    // Collect (the body of Algorithm 2's outer loop). A vehicle with no
    // spare capacity cannot take any batch; it is asked nothing, and every
    // edge of its column stays at Ω.
    let shortlists: Vec<Option<Shortlist>> = {
        let _span = foodmatch_telemetry::span("engine", "foodgraph.collect");
        parallel_map(vehicles, worker_count, |_, vehicle| {
            vehicle.has_capacity(config).then(|| {
                shortlist(vehicle, &offers, &batches_by_start, engine, t, config, degree_cap)
            })
        })
    };

    // Resolve: the stop → stop legs the survivors' tables read, one search
    // per distinct stop of the window instead of one per (vehicle, stop).
    let resolved = {
        let _span = foodmatch_telemetry::span("engine", "foodgraph.resolve");
        let fleet = vehicles.iter().zip(&shortlists);
        let fleet = fleet.filter_map(|(vehicle, shortlist)| Some((vehicle, shortlist.as_ref()?)));
        resolve(fleet, &offers, engine, t, config.effective_threads())
    };
    engine.note_foodgraph_sources(resolved.len());

    // Price: table plans only — no engine call.
    let _span = foodmatch_telemetry::span("engine", "foodgraph.price");
    let priced = parallel_map(&shortlists, worker_count, |col, shortlist| {
        let (vehicle, shortlist) = (&vehicles[col], shortlist.as_ref()?);
        Some(price(vehicle, shortlist, &offers, &resolved, t))
    });

    let mut costs =
        SparseCostMatrix::new(batches.len(), vehicles.len(), config.rejection_penalty_secs);
    let mut evaluations = 0;
    for (col, (shortlist, priced)) in shortlists.iter().zip(priced).enumerate() {
        evaluations += shortlist.as_ref().map_or(0, |shortlist| shortlist.offered);
        // Infeasible pairs keep the implicit Ω edge.
        for (row, cost_secs) in priced.into_iter().flatten() {
            // Incumbency tie-break: when reshuffling re-offers orders the
            // vehicle already holds, near-equal costs must not bounce the
            // order to a different vehicle every window (that would reset
            // its first mile forever). A small bonus per already-held
            // order keeps ties with the incumbent without overriding any
            // genuine improvement.
            let tentative = &vehicles[col].tentative;
            let incumbency = offers[row].iter().filter(|o| tentative.contains(&o.id)).count();
            let weight = (cost_secs - INCUMBENCY_BONUS_SECS * incumbency as f64)
                .min(config.rejection_penalty_secs);
            costs.set(row, col, weight);
        }
    }

    FoodGraph { vehicle_ids, costs, evaluations }
}

/// The batch rows by the node where their route plans start.
fn batches_by_start(batches: &[Batch]) -> HashMap<NodeId, Vec<usize>> {
    let mut by_start: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (row, batch) in batches.iter().enumerate() {
        by_start.entry(batch.first_pickup()).or_default().push(row);
    }
    by_start
}

/// Collect for one vehicle with spare capacity: everything only it can
/// answer, asked over every batch (`cost.rs::collect` — one gated sweep, so
/// its survivors are F, the batches inside the first mile), then, when the
/// degree cap is below the batch count, Alg. 2's expansion, which stops once
/// it has reached every row of F. The vehicle is offered the rows it
/// reached, and keeps those of them in F. With F empty the expansion would
/// stop before it settled a node, so it is not started: the vehicle is
/// offered nothing.
fn shortlist(
    vehicle: &VehicleSnapshot,
    offers: &[&[Order]],
    batches_by_start: &HashMap<NodeId, Vec<usize>>,
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
    degree_cap: usize,
) -> Shortlist {
    let every_offer: Vec<usize> = (0..offers.len()).collect();
    let mut shortlist = collect(vehicle, &every_offer, offers, engine, t, config);
    // `degree_cap` is `usize::MAX` for the dense graph (the vanilla-KM path
    // and the "no BFS" ablation): every batch is offered, nothing expands.
    if degree_cap < offers.len() {
        let inside = shortlist.survivors();
        if inside.is_empty() {
            shortlist.keep_reached(&[]);
            return shortlist;
        }
        let reached =
            candidate_rows(vehicle, batches_by_start, engine, t, config, degree_cap, inside);
        shortlist.keep_reached(&reached);
    }
    shortlist
}

/// The batch rows a best-first expansion from the vehicle reaches first, in
/// the order it reaches them: the first `degree_cap`, or fewer once every row
/// of `inside` (sorted) is among them.
fn candidate_rows(
    vehicle: &VehicleSnapshot,
    batches_by_start: &HashMap<NodeId, Vec<usize>>,
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
    degree_cap: usize,
    inside: &[usize],
) -> Vec<usize> {
    // The expansion runs in a pooled search space, so the per-vehicle
    // searches reuse one set of arrays instead of allocating.
    let network = engine.network();
    let mut space = engine.search_space();
    match vehicle.heading.filter(|_| config.use_angular_distance) {
        // Under the vehicle-sensitive weight α of Eq. 8. Everything that is
        // constant for the vehicle is evaluated here, once, and the angular
        // distance — a function of the edge's head node only — once per
        // node the expansion reaches, not once per edge it relaxes.
        Some(heading) => {
            let frame =
                AngularFrame::new(network.position(vehicle.location), network.position(heading));
            let max_beta = network.max_travel_time().as_secs_f64().max(1e-9);
            let gamma = config.gamma;
            let expansion = Expansion::with_potential(
                network,
                vehicle.location,
                t,
                |node| frame.distance_to(network.position(node), network.lat_trig(node)),
                |adist, beta| (1.0 - gamma) * adist + gamma * beta / max_beta,
                &mut space,
            );
            rows_reached_first(expansion, batches_by_start, degree_cap, inside)
        }
        // By travel time: stop expanding once even the quickest path exceeds
        // the first-mile bound. This cut is not the one `inside` makes: a
        // batch of F whose first pickup lies beyond the bound (another of its
        // restaurants lies inside) is never reached, as it never was.
        None => {
            let expansion = Expansion::new(network, vehicle.location, t, &mut space)
                .take_while(|settled| settled.travel_time <= config.max_first_mile);
            rows_reached_first(expansion, batches_by_start, degree_cap, inside)
        }
    }
}

/// The batch rows whose plans start at a node `expansion` settles, in the
/// order it settles them, until `degree_cap` of them are reached or every
/// row of `inside` (sorted) is. A row it would reach after the last of
/// `inside` is not in it — an Ω edge the vehicle need not be offered.
fn rows_reached_first(
    mut expansion: impl Iterator<Item = Settled>,
    batches_by_start: &HashMap<NodeId, Vec<usize>>,
    degree_cap: usize,
    inside: &[usize],
) -> Vec<usize> {
    let mut rows = Vec::new();
    let mut unreached = inside.len();
    // Both are tested *before* advancing: settling one more node relaxes its
    // out-edges (and prices their heads, under Eq. 8) for nothing.
    while rows.len() < degree_cap && unreached > 0 {
        let Some(settled) = expansion.next() else { break };
        let Some(starting_here) = batches_by_start.get(&settled.node) else { continue };
        let room = degree_cap - rows.len();
        for &row in starting_here.iter().take(room) {
            unreached -= usize::from(inside.binary_search(&row).is_ok());
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::singleton_batches;
    use crate::cost::MarginalCost;
    use crate::order::{Order, OrderId};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, Duration};
    use std::collections::BTreeSet;

    fn setup() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(8, 8).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn order(id: u64, r: NodeId, c: NodeId) -> Order {
        Order::new(OrderId(id), r, c, TimePoint::from_hms(12, 30, 0), 1, Duration::from_mins(8.0))
    }

    /// The `(row, col)` pairs the graph priced: its explicit cost entries.
    fn priced(graph: &FoodGraph) -> BTreeSet<(usize, usize)> {
        graph.costs.entries().iter().map(|&(row, col, _)| (row, col)).collect()
    }

    fn vehicles_at(nodes: &[NodeId]) -> Vec<VehicleSnapshot> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, &n)| VehicleSnapshot::idle(VehicleId(i as u32), n))
            .collect()
    }

    #[test]
    fn dense_graph_prices_every_feasible_pair() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        let config = DispatchConfig { use_bfs_sparsification: false, ..Default::default() };
        let orders = vec![
            order(1, b.node_at(1, 1), b.node_at(5, 5)),
            order(2, b.node_at(6, 2), b.node_at(2, 6)),
        ];
        let batches = singleton_batches(&orders, &engine, t).batches;
        let vehicles = vehicles_at(&[b.node_at(0, 0), b.node_at(7, 7), b.node_at(3, 3)]);
        let graph = build_food_graph(&batches, &vehicles, &engine, t, &config);
        assert_eq!(graph.costs.rows(), 2);
        assert_eq!(graph.vehicle_count(), 3);
        // Every (batch, vehicle) pair on a connected free-flow grid is
        // feasible, so all six edges carry a true cost.
        assert_eq!(graph.costs.explicit_entries(), 6);
        assert_eq!(graph.evaluations, 6);
        for r in 0..2 {
            for c in 0..3 {
                assert!(graph.costs.get(r, c) < config.rejection_penalty_secs);
            }
        }
    }

    #[test]
    fn sparsified_graph_caps_vehicle_degree() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        // Force a tiny degree cap: k_factor 1 with equal orders and vehicles
        // gives k = 1.
        let config = DispatchConfig { k_factor: 1.0, ..Default::default() };
        let orders: Vec<Order> = (0..4)
            .map(|i| order(i, b.node_at(2 * i as usize, 1), b.node_at(2 * i as usize, 6)))
            .collect();
        let batches = singleton_batches(&orders, &engine, t).batches;
        let vehicles =
            vehicles_at(&[b.node_at(0, 0), b.node_at(2, 0), b.node_at(4, 0), b.node_at(6, 0)]);
        let graph = build_food_graph(&batches, &vehicles, &engine, t, &config);
        // Each vehicle has at most one explicit (non-Ω) edge.
        for c in 0..4 {
            let explicit =
                (0..4).filter(|&r| graph.costs.get(r, c) < config.rejection_penalty_secs).count();
            assert!(explicit <= 1, "vehicle {c} has {explicit} explicit edges");
        }
        // Sparsification must have saved marginal-cost evaluations.
        assert!(graph.evaluations <= 8, "expected ≤ 2 per vehicle, got {}", graph.evaluations);
    }

    #[test]
    fn sparsified_edges_point_to_nearby_batches() {
        // Lemma 1: a batch with a non-Ω edge must be among the k closest
        // batch start nodes of that vehicle (measured by quickest path).
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        let config =
            DispatchConfig { k_factor: 2.0, use_angular_distance: false, ..Default::default() };
        let orders: Vec<Order> = (0..6)
            .map(|i| order(i, b.node_at(i as usize, i as usize), b.node_at(7, i as usize)))
            .collect();
        let batches = singleton_batches(&orders, &engine, t).batches;
        let vehicles = vehicles_at(&[b.node_at(0, 0)]);
        let k = config.degree_cap(batches.len(), vehicles.len());
        let graph = build_food_graph(&batches, &vehicles, &engine, t, &config);

        // Rank batches by network distance from the vehicle.
        let mut by_distance: Vec<(f64, usize)> = batches
            .iter()
            .enumerate()
            .map(|(row, batch)| {
                let d = engine
                    .travel_time(vehicles[0].location, batch.first_pickup(), t)
                    .unwrap()
                    .as_secs_f64();
                (d, row)
            })
            .collect();
        by_distance.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let closest: Vec<usize> = by_distance.iter().take(k).map(|&(_, r)| r).collect();

        for row in 0..batches.len() {
            if graph.costs.get(row, 0) < config.rejection_penalty_secs {
                assert!(
                    closest.contains(&row),
                    "batch {row} got a real edge but is not among the {k} closest"
                );
            }
        }
    }

    #[test]
    fn fully_loaded_vehicle_gets_only_omega_edges() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        let config = DispatchConfig::default();
        let orders = vec![order(10, b.node_at(1, 1), b.node_at(2, 2))];
        let batches = singleton_batches(&orders, &engine, t).batches;
        let mut full = VehicleSnapshot::idle(VehicleId(0), b.node_at(1, 2));
        full.committed = (0..3)
            .map(|i| crate::route::PlannedOrder {
                order: order(i, b.node_at(0, 0), b.node_at(0, 1)),
                picked_up: true,
            })
            .collect();
        let graph = build_food_graph(&batches, &[full], &engine, t, &config);
        assert_eq!(graph.costs.explicit_entries(), 0);
        assert_eq!(graph.evaluations, 0);
    }

    #[test]
    fn angular_distance_biases_edges_towards_the_heading() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        // Vehicle at the grid centre heading east; two equidistant batches,
        // one east and one west. With γ = 0 (pure angular) and k = 1 the
        // eastern batch must get the single real edge.
        let config = DispatchConfig { k_factor: 0.5, gamma: 0.0, ..Default::default() };
        let east = order(1, b.node_at(3, 6), b.node_at(0, 6));
        let west = order(2, b.node_at(3, 0), b.node_at(0, 0));
        let batches = singleton_batches(&[east, west], &engine, t).batches;
        let mut vehicle = VehicleSnapshot::idle(VehicleId(0), b.node_at(3, 3));
        vehicle.heading = Some(b.node_at(3, 4));
        let graph = build_food_graph(&batches, &[vehicle], &engine, t, &config);
        let east_row = batches.iter().position(|batch| batch.orders[0].id == OrderId(1)).unwrap();
        let west_row = 1 - east_row;
        assert!(
            graph.costs.get(east_row, 0) < config.rejection_penalty_secs,
            "east batch should be reachable"
        );
        assert_eq!(
            graph.costs.get(west_row, 0),
            config.rejection_penalty_secs,
            "west batch should be pruned"
        );
    }

    /// Alg. 2's rows with the cap only, as they were before the first-mile
    /// cut: every batch for the dense graph, else the first `cap` batches the
    /// expansion reaches. With every row inside, the cut cannot stop it
    /// before it has reached every batch there is.
    fn uncut_rows(
        vehicle: &VehicleSnapshot,
        batches: &[Batch],
        engine: &ShortestPathEngine,
        t: TimePoint,
        config: &DispatchConfig,
        cap: usize,
    ) -> Vec<usize> {
        let every_row: Vec<usize> = (0..batches.len()).collect();
        if cap >= batches.len() {
            return every_row;
        }
        candidate_rows(vehicle, &batches_by_start(batches), engine, t, config, cap, &every_row)
    }

    /// The FoodGraph as it was built before any leg was shared and before
    /// the first-mile cut: the uncut candidate rows, each priced by its own
    /// reference `marginal_cost` call.
    fn per_pair_reference(
        batches: &[Batch],
        vehicles: &[VehicleSnapshot],
        engine: &ShortestPathEngine,
        t: TimePoint,
        config: &DispatchConfig,
    ) -> FoodGraph {
        let omega = config.rejection_penalty_secs;
        let mut graph = FoodGraph {
            vehicle_ids: vehicles.iter().map(|v| v.id).collect(),
            costs: SparseCostMatrix::new(batches.len(), vehicles.len(), omega),
            evaluations: 0,
        };
        let cap = config.degree_cap(batches.len(), vehicles.len());
        for (col, vehicle) in vehicles.iter().enumerate() {
            if !vehicle.has_capacity(config) {
                continue;
            }
            for row in uncut_rows(vehicle, batches, engine, t, config, cap) {
                graph.evaluations += 1;
                let orders = &batches[row].orders;
                let price =
                    crate::cost::reference_marginal_cost(vehicle, orders, engine, t, config);
                if let MarginalCost::Feasible { cost_secs } = price {
                    let held = orders.iter().filter(|o| vehicle.tentative.contains(&o.id)).count();
                    let weight = (cost_secs - INCUMBENCY_BONUS_SECS * held as f64).min(omega);
                    graph.costs.set(row, col, weight);
                }
            }
        }
        graph
    }

    #[test]
    fn graph_equals_the_per_pair_reference() {
        // Rush-hour congestion on a grid with arterials: uneven weights, so
        // nothing ties by accident.
        let b = GridCityBuilder::new(9, 9);
        let engine = ShortestPathEngine::cached(b.build());
        let t = TimePoint::from_hms(19, 30, 0);
        let at = |i: usize| b.node_at(i * 5 % 9, i * 7 % 9);
        let order = |id: u64, r: NodeId, c: NodeId| {
            let placed_at = t - Duration::from_mins((id % 4) as f64);
            Order::new(OrderId(id), r, c, placed_at, 1, Duration::from_mins(8.0))
        };
        let orders: Vec<Order> = (0..18)
            // Restaurants repeat (i % 6), customers mostly do not.
            .map(|i| order(i as u64, at(i % 6), at(i + 11)))
            .collect();
        let batching =
            DispatchConfig { batching_threshold: Duration::from_mins(10.0), ..Default::default() };
        let mut batches = crate::batching::batch_orders(&orders, &engine, t, &batching).batches;
        assert!(batches.iter().any(|batch| batch.len() > 1), "want a multi-order batch");
        // Single orders at nodes of their own, for the vehicles that have
        // room for just one more.
        let lone: Vec<Order> =
            [(0, 3, 2, 6), (3, 1, 6, 6), (5, 2, 8, 7), (7, 1, 4, 8), (1, 8, 8, 0)]
                .iter()
                .zip(50..)
                .map(|(&(r, c, to_r, to_c), id)| order(id, b.node_at(r, c), b.node_at(to_r, to_c)))
                .collect();
        batches.extend(singleton_batches(&lone, &engine, t).batches);
        // A two-order batch whose restaurants lie at opposite corners: from
        // near one of them, a tight first mile has one restaurant inside it
        // and the other outside.
        let split = [
            order(60, b.node_at(1, 7), b.node_at(0, 4)),
            order(61, b.node_at(7, 1), b.node_at(8, 5)),
        ];
        let planned = split.map(crate::route::PlannedOrder::pending);
        let route =
            crate::route::plan_optimal_route_free_start(t, &planned, &engine).expect("plans");
        batches.push(Batch { orders: split.to_vec(), route });
        let split_row = batches.len() - 1;

        let committed = |id: u64, r: usize, c: usize, picked_up: bool| crate::route::PlannedOrder {
            order: order(100 + id, at(r), at(c)),
            picked_up,
        };
        let mut vehicles = vehicles_at(&(0..15).map(|i| at(3 * i + 1)).collect::<Vec<_>>());
        vehicles[1].location = orders[0].restaurant; // standing on a batch's first pickup
        vehicles[2].committed = vec![committed(0, 2, 20, false)];
        vehicles[3].committed = vec![committed(1, 4, 21, true)];
        vehicles[4].committed = vec![committed(2, 3, 22, false), committed(3, 5, 23, true)];
        vehicles[4].location = vehicles[4].committed[0].order.restaurant; // standing on its own stop
        vehicles[5].committed = vec![committed(4, 1, 24, true)];
        vehicles[5].location = orders[1].restaurant; // loaded *and* on a batch's restaurant
        vehicles[6].committed = (5..8).map(|i| committed(i, 0, 25, true)).collect(); // full
        vehicles[7].tentative = vec![orders[2].id, orders[3].id];
        for (i, vehicle) in vehicles.iter_mut().enumerate().skip(8) {
            vehicle.heading = Some(at(i + 2));
        }
        vehicles[9].committed = vec![committed(8, 6, 26, false)];
        // The shape the committed-stop sweep is for: three committed stops
        // (one order on board) shared with nothing, room for one more order.
        // Multi-order batches fail capacity, the far single orders fail
        // `tight`'s first mile, the rest are priced off one sweep per stop.
        vehicles[10].committed = vec![
            crate::route::PlannedOrder {
                order: order(109, b.node_at(0, 8), b.node_at(3, 3)),
                picked_up: true,
            },
            crate::route::PlannedOrder {
                order: order(110, b.node_at(2, 3), b.node_at(4, 5)),
                picked_up: false,
            },
        ];
        // The shapes the window-level resolve exists for. One restaurant
        // node is a committed stop of two vehicles (searched from once, for
        // the batches of both) while a third stands on it with an order of
        // its own to collect there (its start row, not a stop → stop leg)…
        let shared = b.node_at(6, 0);
        let pending = |id: u64, customer: NodeId| crate::route::PlannedOrder {
            order: order(id, shared, customer),
            picked_up: false,
        };
        vehicles[11].committed = vec![pending(111, b.node_at(8, 3))];
        vehicles[12].committed = vec![pending(112, b.node_at(0, 1))];
        vehicles[13].committed = vec![pending(113, b.node_at(5, 8))];
        vehicles[13].location = shared;
        // …and an idle vehicle stands on another vehicle's committed stop.
        vehicles[0].location = b.node_at(8, 3);
        // Two couriers under way next to one restaurant of the split batch,
        // one of them loaded.
        vehicles[8].location = b.node_at(1, 6);
        vehicles[9].location = b.node_at(6, 1);
        // A courier under way with no batch inside the tightest first mile.
        vehicles[14].location = b.node_at(4, 4);
        // A loaded courier standing on a batch's customer, and one on its own
        // pending order's customer: the start is a stop, so the tables read
        // legs from it to pending customers too.
        vehicles[2].location = orders[5].customer;
        vehicles[12].location = vehicles[12].committed[0].order.customer;
        let on_a_customer = batches.iter().position(|batch| batch.orders.contains(&orders[5]));
        let on_a_customer = on_a_customer.expect("every order is batched");
        assert!(batches
            .iter()
            .flat_map(|batch| &batch.orders)
            .all(|o| o.restaurant != orders[5].customer));

        let dense = DispatchConfig { use_bfs_sparsification: false, ..Default::default() };
        let plain =
            DispatchConfig { k_factor: 5.0, use_angular_distance: false, ..Default::default() };
        let angular = DispatchConfig { k_factor: 5.0, ..Default::default() };
        // A first-mile bound some batches fail, so that pairs drop out at
        // each of capacity, first mile and planning.
        let tight = DispatchConfig { max_first_mile: Duration::from_mins(4.0), ..dense.clone() };
        // The metro shape: couriers under way, a sparsified angular
        // expansion, and a first mile most of what it reaches lies beyond —
        // survivors whose customers lie beyond it too, and loaded couriers
        // whose committed stops do.
        let metro = DispatchConfig { max_first_mile: Duration::from_mins(1.5), ..angular.clone() };
        let first_mile = |vehicle: &VehicleSnapshot, node| {
            engine.travel_time(vehicle.location, node, t).unwrap()
        };
        let beyond =
            |vehicle: &VehicleSnapshot, node| first_mile(vehicle, node) > metro.max_first_mile;
        let (mut candidates, mut too_far) = (0, 0);
        let cap = metro.degree_cap(batches.len(), vehicles.len());
        for vehicle in vehicles.iter().filter(|v| v.heading.is_some() && v.has_capacity(&metro)) {
            for row in uncut_rows(vehicle, &batches, &engine, t, &metro, cap) {
                candidates += 1;
                too_far +=
                    usize::from(batches[row].orders.iter().all(|o| beyond(vehicle, o.restaurant)));
            }
        }
        assert!(2 * too_far > candidates, "{too_far} of {candidates} beyond the first mile");
        for (name, config) in [
            ("dense", dense),
            ("plain", plain),
            ("angular", angular.clone()),
            ("tight", tight),
            ("metro", metro.clone()),
        ] {
            for num_threads in [1, 4] {
                let config = DispatchConfig { num_threads, ..config.clone() };
                let graph = build_food_graph(&batches, &vehicles, &engine, t, &config);
                let reference = per_pair_reference(&batches, &vehicles, &engine, t, &config);
                let what = format!("{name}, {num_threads} threads");
                // The cut offers fewer rows, never more, and only where the
                // first mile is tight enough for the expansion to outrun it.
                assert!(graph.evaluations <= reference.evaluations, "{what}");
                if name == "metro" {
                    assert!(graph.evaluations < reference.evaluations, "{what}");
                }
                assert!(graph.explicit_edges() < graph.evaluations, "{what}: all feasible");
                let pairs = priced(&graph);
                assert_eq!(pairs, priced(&reference), "{what}");
                // The loaded vehicle prices several single orders (all of
                // them when dense, all but the far ones when tight).
                let priced_for_10 = pairs.iter().filter(|&&(_, col)| col == 10).count();
                match name {
                    "dense" => {
                        assert_eq!(priced_for_10, lone.len(), "{what}");
                        assert!(pairs.contains(&(on_a_customer, 2)), "{what}");
                        assert!(pairs.iter().any(|&(_, col)| col == 12), "{what}");
                    }
                    "tight" => assert!((2..lone.len()).contains(&priced_for_10), "{what}"),
                    "metro" => {}
                    _ => assert!(priced_for_10 >= 2, "{what}"),
                }
                // The split batch is priced for a courier next to either of
                // its restaurants when every vehicle is offered every batch,
                // and under Alg. 2 for the one next to its first pickup.
                let split = &batches[split_row];
                for col in [8, 9] {
                    let outside =
                        [0, 1].map(|i| beyond(&vehicles[col], split.orders[i].restaurant));
                    assert!(
                        outside[0] != outside[1],
                        "one restaurant inside, one outside for {col}"
                    );
                    let near_start = !beyond(&vehicles[col], split.first_pickup());
                    if name == "tight" || (name == "metro" && near_start) {
                        assert!(pairs.contains(&(split_row, col)), "{what}: {col}");
                    }
                }
                if name == "metro" {
                    // Survivors whose customers lie beyond the first mile, and
                    // a loaded courier with a committed stop beyond it.
                    let far_customers = pairs.iter().filter(|&&(row, col)| {
                        batches[row].orders.iter().any(|o| beyond(&vehicles[col], o.customer))
                    });
                    assert!(far_customers.count() >= 2, "{what}");
                    assert!(vehicles[9]
                        .committed
                        .iter()
                        .any(|c| beyond(&vehicles[9], c.order.customer)));
                    assert!(pairs.iter().any(|&(_, col)| col == 9), "{what}");
                }
                for row in 0..batches.len() {
                    for col in 0..vehicles.len() {
                        let (got, want) = (graph.cost(row, col), reference.cost(row, col));
                        assert_eq!(got.to_bits(), want.to_bits(), "{what}: ({row}, {col})");
                    }
                }
            }
        }

        // The cut, courier by courier. One with no batch inside `metro`'s
        // first mile is offered nothing, where the uncut expansion ran to
        // the cap, and its column is all Ω.
        let offers: Vec<&[Order]> = batches.iter().map(|batch| batch.orders.as_slice()).collect();
        let by_start = batches_by_start(&batches);
        let stranded = &vehicles[14];
        assert!(stranded.heading.is_some() && stranded.has_capacity(&metro));
        assert!(batches
            .iter()
            .flat_map(|batch| &batch.orders)
            .all(|o| beyond(stranded, o.restaurant)));
        let graph = build_food_graph(&batches, &vehicles, &engine, t, &metro);
        let omega = metro.rejection_penalty_secs;
        assert!((0..batches.len()).all(|row| graph.cost(row, 14) == omega));
        assert_eq!(shortlist(stranded, &offers, &by_start, &engine, t, &metro, cap).offered, 0);
        assert_eq!(uncut_rows(stranded, &batches, &engine, t, &metro, cap).len(), cap);
        // One whose cap fills before it has reached every batch inside the
        // first mile is offered exactly the uncut rows.
        let cap = angular.degree_cap(batches.len(), vehicles.len());
        let courier = &vehicles[8];
        let every_row: Vec<usize> = (0..batches.len()).collect();
        let inside = collect(courier, &every_row, &offers, &engine, t, &angular);
        let inside = inside.survivors();
        let rows = candidate_rows(courier, &by_start, &engine, t, &angular, cap, inside);
        assert_eq!(rows.len(), cap);
        assert!(inside.iter().any(|row| !rows.contains(row)), "the cap fills first");
        assert_eq!(rows, uncut_rows(courier, &batches, &engine, t, &angular, cap));
        let offered = shortlist(courier, &offers, &by_start, &engine, t, &angular, cap);
        assert_eq!(offered.offered, cap);
    }

    #[test]
    fn empty_inputs_produce_empty_graph() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        let config = DispatchConfig::default();
        let graph = build_food_graph(&[], &vehicles_at(&[b.node_at(0, 0)]), &engine, t, &config);
        assert_eq!(graph.explicit_edges(), 0);
        assert_eq!(graph.evaluations, 0);
    }

    #[test]
    fn parallel_and_serial_construction_agree() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 30, 0);
        let config = DispatchConfig { use_bfs_sparsification: false, ..Default::default() };
        let orders: Vec<Order> = (0..5)
            .map(|i| order(i, b.node_at(i as usize, 2), b.node_at(i as usize + 1, 6)))
            .collect();
        let batches = singleton_batches(&orders, &engine, t).batches;
        // 9 vehicles crosses the parallel threshold (8).
        let vehicle_nodes: Vec<NodeId> = (0..9).map(|i| b.node_at(i % 8, 7 - (i % 8))).collect();
        let vehicles = vehicles_at(&vehicle_nodes);
        let parallel = build_food_graph(&batches, &vehicles, &engine, t, &config);
        let serial_vehicles = &vehicles[..7]; // below the threshold ⇒ serial path
        let serial = build_food_graph(&batches, serial_vehicles, &engine, t, &config);
        for r in 0..batches.len() {
            for c in 0..serial_vehicles.len() {
                assert_eq!(parallel.costs.get(r, c).to_bits(), serial.costs.get(r, c).to_bits());
            }
        }
    }
}
