//! Order batching by iterative clustering of the order graph (§IV-B,
//! Algorithm 1).
//!
//! Orders that can be served by one vehicle without long detours are grouped
//! into *batches*; the batches (not individual orders) then form the order
//! side of the FoodGraph. The order graph has one node per batch and an edge
//! between two batches whose merge respects `MAXO`/`MAXI`; the edge weight is
//! the *increase* in total extra delivery time caused by serving both batches
//! with one simulated vehicle (Eq. 5), where each simulated vehicle starts at
//! the first pick-up of its own optimal route plan. Clustering repeatedly
//! merges the cheapest edge until the average batch cost exceeds the quality
//! threshold `η` or no merge is feasible. Theorem 2 guarantees the average
//! cost never decreases, so termination is monotone.
//!
//! The oracle is asked once per window, and only for the legs a merge could
//! read: one one-to-many sweep per distinct stop fills a stop-to-stop table
//! ([`LegRows`]) over the stops of that stop's *component*, and every plan of
//! the clustering — singletons, merge candidates, per-merge refreshes — reads
//! it. Two orders share a component when a chain of restaurants, each within
//! `R = s + MAXO·η` (plus one second for rounding) of the next in one
//! direction or the other, joins theirs, where `s = max (ready_o − t)⁺` over
//! the window; one gated sweep per distinct restaurant finds the chains.
//!
//! **Why no merge crosses components.** Take clusters A and B, all orders
//! pending, the simulated vehicle free at `t`, and say the merged plan starts
//! in A. Its first stop is a restaurant of A and the first B stop it reaches
//! is a restaurant of B, so every B order is picked up at or after `t + D`,
//! `D = min SP(a, b)` over restaurants `a` of A and `b` of B; an order's XDT
//! is its delivery less `ready_o + SP(r, c)`, and no tour from `r` to `c` is
//! shorter than `SP(r, c)`, so `XDT_o ≥ (t + D − ready_o)⁺`. Keeping only A's
//! stops leaves a plan for A, so A's orders cost at least `Cost(A)`.
//! `Cost(B)` is `Σ (t − ready_o)⁺` (a singleton only waits for its food) plus
//! the weights of the merges that built B, each `≤ η·size` by the gate. So
//! the weight of the merge is at least `|B|·(D − s) − η·S_B`, with `S_B` the
//! sum of the sizes of B's merges (`≤ |B|(|B| + 1)/2 − 1`, and `|B| < MAXO`),
//! and passing the gate `weight ≤ η·|A ∪ B|` needs
//! `D ≤ s + η·(|A ∪ B| + S_B)/|B| ≤ s + MAXO·η`. The same holds with A and B
//! swapped. Clusters of different components have every restaurant pair
//! farther apart than `R` both ways, so no merge of theirs passes the gate:
//! skipping them changes nothing, and their legs are never swept.

use crate::config::DispatchConfig;
use crate::legs::{LegRows, MIN_FAN_OUT};
use crate::order::{Order, OrderId};
use crate::parallel_map;
use crate::route::{
    plan_on_table, plan_optimal_route_free_start, EvaluatedRoute, LegTable, PlannedOrder,
};
use foodmatch_roadnet::{Duration, GatedTargets, NodeId, ShortestPathEngine, TimePoint};
use std::collections::BTreeMap;

/// A batch of orders to be assigned to a single vehicle, together with the
/// quickest route plan of its simulated vehicle.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The orders grouped into this batch.
    pub orders: Vec<Order>,
    /// The quickest free-start route plan serving the batch; its cost is the
    /// batch quality `Cost(v_i, π_i)` used by the stopping rule.
    pub route: EvaluatedRoute,
}

impl Batch {
    /// Number of orders in the batch.
    pub fn len(&self) -> usize {
        self.orders.len()
    }

    /// True if the batch has no orders (never produced by the algorithm).
    pub fn is_empty(&self) -> bool {
        self.orders.is_empty()
    }

    /// Total number of items across the batch.
    pub fn total_items(&self) -> u32 {
        self.orders.iter().map(|o| o.items).sum()
    }

    /// The batch's cost `Cost(v_i, π_i)` in seconds.
    pub fn cost_secs(&self) -> f64 {
        self.route.cost_secs
    }

    /// The node where the batch's route plan starts — `π[1]^r`, the first
    /// pick-up, which anchors the batch in the sparsified FoodGraph.
    pub fn first_pickup(&self) -> NodeId {
        self.route.first_pickup_node().unwrap_or_else(|| self.orders[0].restaurant)
    }

    /// Ids of the orders in the batch.
    pub fn order_ids(&self) -> Vec<OrderId> {
        self.orders.iter().map(|o| o.id).collect()
    }
}

/// Result of the batching stage.
#[derive(Clone, Debug)]
pub struct BatchingOutcome {
    /// The final batches (the partition `U_1` of Algorithm 1).
    pub batches: Vec<Batch>,
    /// Orders that could not be planned at all (customer unreachable from
    /// restaurant); they bypass batching and will eventually be rejected.
    pub unplannable: Vec<Order>,
    /// Number of merges performed.
    pub merges: usize,
}

/// Wraps every order in its own singleton batch without any clustering.
/// Used by the ablation configuration that disables batching and by the
/// vanilla KM baseline.
pub fn singleton_batches(
    orders: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
) -> BatchingOutcome {
    singleton_batches_with_threads(orders, engine, t, 1)
}

/// [`singleton_batches`] with the per-order route planning fanned out across
/// `threads` scoped workers (results are merged in input order, so every
/// thread count yields the same outcome).
fn singleton_batches_with_threads(
    orders: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    threads: usize,
) -> BatchingOutcome {
    let planned = parallel_map(orders, threads, |_, &order| {
        plan_optimal_route_free_start(t, &[PlannedOrder::pending(order)], engine)
    });
    singletons(orders, planned)
}

/// One batch per order that has a plan; the rest are unplannable.
fn singletons(
    orders: &[Order],
    planned: impl IntoIterator<Item = Option<EvaluatedRoute>>,
) -> BatchingOutcome {
    let mut batches = Vec::with_capacity(orders.len());
    let mut unplannable = Vec::new();
    for (&order, route) in orders.iter().zip(planned) {
        match route {
            Some(route) => batches.push(Batch { orders: vec![order], route }),
            None => unplannable.push(order),
        }
    }
    BatchingOutcome { batches, unplannable, merges: 0 }
}

/// The window's components (see the module header), and the travel times
/// between every two stops of one component: one [`LegRows`] row per stop, to
/// every stop of its component(s), where per-pair leg tables would search
/// from the same stop once per pairing. Legs across components are not swept.
/// A cluster never leaves its component, so everything Algorithm 1 plans
/// after the sweep reads these rows and never the engine.
fn sweep_stop_legs(
    orders: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
    threads: usize,
) -> (Components, LegRows) {
    let _span = foodmatch_telemetry::span("engine", "batching.sweep");
    let components = Components::of_window(orders, engine, t, config, threads);
    let mut stops: Vec<Vec<NodeId>> = vec![Vec::new(); components.restaurants.len()];
    for o in orders {
        stops[components.of(o.restaurant)].extend([o.restaurant, o.customer]);
    }
    let mut wanted: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for stops in &mut stops {
        stops.sort_unstable();
        stops.dedup();
        for &from in stops.iter() {
            wanted.entry(from).or_default().extend(&*stops);
        }
    }
    (components, LegRows::sweep(wanted, engine, t, threads))
}

/// The window's distinct restaurants, sorted, and the component each lies
/// in (the index of its component's first restaurant).
struct Components {
    restaurants: Vec<NodeId>,
    root: Vec<usize>,
}

impl Components {
    /// One gated sweep per distinct restaurant, all asking the same gates:
    /// one per distinct restaurant, of radius `R = s + MAXO·η + 1 s`,
    /// triggered by that restaurant, over the customers of its orders. A gate
    /// opens when its restaurant lies within `R` of the sweep's, which joins
    /// the two. A sweep's own gate opens at its source, so its customers — its
    /// orders' SDT legs — are answered too, and the stop table finds them in
    /// the memo.
    fn of_window(
        orders: &[Order],
        engine: &ShortestPathEngine,
        t: TimePoint,
        config: &DispatchConfig,
        threads: usize,
    ) -> Self {
        let _span = foodmatch_telemetry::span("engine", "batching.near");
        let slack = orders.iter().map(|o| o.ready_at().saturating_since(t).as_secs_f64());
        let slack = slack.fold(0.0, f64::max);
        let eta_secs = config.batching_threshold.as_secs_f64();
        let reach =
            Duration::from_secs_f64(slack + config.max_orders_per_vehicle as f64 * eta_secs + 1.0);
        let mut served: Vec<(NodeId, NodeId)> =
            orders.iter().map(|o| (o.restaurant, o.customer)).collect();
        served.sort_unstable();
        let mut asked = GatedTargets::new();
        let mut restaurants = Vec::new();
        for there in served.chunk_by(|a, b| a.0 == b.0) {
            restaurants.push(there[0].0);
            asked.gate(reach, [there[0].0], there.iter().map(|&(_, customer)| customer));
        }
        let threads = if restaurants.len() >= MIN_FAN_OUT { threads } else { 1 };
        let opened = parallel_map(&restaurants, threads, |_, &from| {
            engine.gated_travel_times(from, &asked, t).opened
        });

        let mut root: Vec<usize> = (0..restaurants.len()).collect();
        fn find(root: &mut [usize], mut i: usize) -> usize {
            while root[i] != i {
                root[i] = root[root[i]];
                i = root[i];
            }
            i
        }
        for (i, opened) in opened.iter().enumerate() {
            for j in (0..opened.len()).filter(|&j| opened[j]) {
                let (a, b) = (find(&mut root, i), find(&mut root, j));
                root[a.max(b)] = a.min(b);
            }
        }
        for i in 0..root.len() {
            root[i] = find(&mut root, i);
        }
        Components { restaurants, root }
    }

    /// The component of the window's restaurant `restaurant`.
    fn of(&self, restaurant: NodeId) -> usize {
        self.root[self.restaurants.binary_search(&restaurant).expect("a restaurant of the window")]
    }
}

/// The quickest free-start plan serving `orders` (all pending), with travel
/// times read from `legs` (see [`LegTable::extend`]).
fn plan_free_start(
    t: TimePoint,
    orders: &[Order],
    legs: impl FnMut(NodeId, &[NodeId], &mut [f64]),
) -> Option<EvaluatedRoute> {
    let planned: Vec<PlannedOrder> = orders.iter().copied().map(PlannedOrder::pending).collect();
    let mut table = LegTable::new(None);
    table.extend(&planned, legs);
    plan_on_table(&table, t, &planned)
}

/// Runs Algorithm 1: iterative clustering of the order graph.
///
/// `t` is the window-close time at which route plans are evaluated.
pub fn batch_orders(
    orders: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> BatchingOutcome {
    let threads = config.effective_threads();
    if !config.use_batching || orders.len() < 2 {
        let threads = if orders.len() >= MIN_FAN_OUT { threads } else { 1 };
        return singleton_batches_with_threads(orders, engine, t, threads);
    }
    // The sweeps — one graph search each, per restaurant and then per stop —
    // dominate the stage and are its only engine calls; everything below
    // reads `stop_legs`.
    let (components, stop_legs) = sweep_stop_legs(orders, engine, t, config, threads);
    let _span = foodmatch_telemetry::span("engine", "batching.cluster");
    let seed =
        singletons(orders, orders.iter().map(|&o| plan_free_start(t, &[o], stop_legs.legs(None))));
    if seed.batches.len() < 2 {
        return seed;
    }
    let unplannable = seed.unplannable;
    let eta_secs = config.batching_threshold.as_secs_f64();

    // Clusters are slots that may be emptied by merges. A merge never leaves
    // its component, so a slot keeps its component.
    let mut clusters: Vec<Option<Batch>> = seed.batches.into_iter().map(Some).collect();
    let mut active = clusters.len();
    let mut total_cost: f64 = clusters.iter().flatten().map(Batch::cost_secs).sum();
    let mut merges = 0usize;
    let component: Vec<usize> =
        clusters.iter().flatten().map(|c| components.of(c.orders[0].restaurant)).collect();

    // The gated merge of every two live slots `i < j` of one component. A
    // merge is a ≤ 6-stop table plan, about a microsecond: the pair loops
    // stay on the calling thread, where a spawn would cost more than the
    // work. Pairs across components are never planned: no merge of theirs
    // passes the gate (module header), and their legs were not swept.
    let mut table: BTreeMap<(usize, usize), (f64, Batch)> = (0..clusters.len())
        .flat_map(|i| ((i + 1)..clusters.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| component[i] == component[j])
        .filter_map(|(i, j)| Some(((i, j), gated_merge(&clusters, i, j, &stop_legs, t, config)?)))
        .collect();

    while active > 1 {
        let avg = total_cost / active as f64;
        if avg > eta_secs {
            break;
        }
        // The cheapest merge; `min_by` keeps the first of equals, so ties go
        // to the first (i, j).
        let cheapest = table
            .iter()
            .min_by(|(_, (a, _)), (_, (b, _))| a.partial_cmp(b).expect("weights are never NaN"));
        let Some((&(i, j), _)) = cheapest else { break };
        let (_, merged) = table.remove(&(i, j)).expect("a tabled pair");
        table.retain(|&(a, b), _| a != i && a != j && b != i && b != j);

        let left = clusters[i].take().expect("a live slot");
        let right = clusters[j].take().expect("a live slot");
        total_cost -= left.cost_secs() + right.cost_secs();
        total_cost += merged.cost_secs();
        active -= 1;
        merges += 1;
        clusters[i] = Some(merged);
        // Replan the merged slot's row within its component.
        for other in (0..clusters.len()).filter(|&o| o != i && component[o] == component[i]) {
            let (a, b) = (i.min(other), i.max(other));
            if let Some(merge) = gated_merge(&clusters, a, b, &stop_legs, t, config) {
                table.insert((a, b), merge);
            }
        }
    }

    let batches: Vec<Batch> = clusters.into_iter().flatten().collect();
    BatchingOutcome { batches, unplannable, merges }
}

/// The merge of slots `i` and `j` with its Eq. 5 weight, or `None` when
/// either slot is empty, the merge is infeasible or it fails the quality
/// gate.
fn gated_merge(
    clusters: &[Option<Batch>],
    i: usize,
    j: usize,
    stop_legs: &LegRows,
    t: TimePoint,
    config: &DispatchConfig,
) -> Option<(f64, Batch)> {
    let (Some(a), Some(b)) = (&clusters[i], &clusters[j]) else { return None };
    let (weight, merged) = merged_batch(a, b, t, config, stop_legs.legs(None))?;
    // Per-merge quality gate, this reproduction's one interpretation of
    // Algorithm 1 (README, "Batching: one stop table per component"): a merge
    // that by itself adds more extra delivery time than the quality threshold
    // η per order can never be "orders that suffer no long detour" (§IV-B).
    // Algorithm 1 as written only checks the *average* cost before merging,
    // which lets one arbitrarily bad merge through when the window is sparse
    // (the initial average is always zero); gating the edge weight keeps the
    // same convergence argument (weights are non-negative, Theorem 2) while
    // preventing that pathology.
    if weight > config.batching_threshold.as_secs_f64() * merged.len() as f64 {
        return None;
    }
    Some((weight, merged))
}

/// Computes the order-graph edge weight between two batches (Eq. 5) and the
/// merged batch, or `None` if the merge is infeasible (capacity or
/// unreachable stops). The merged plan's travel times are read from `legs`.
fn merged_batch(
    a: &Batch,
    b: &Batch,
    t: TimePoint,
    config: &DispatchConfig,
    legs: impl FnMut(NodeId, &[NodeId], &mut [f64]),
) -> Option<(f64, Batch)> {
    if a.len() + b.len() > config.max_orders_per_vehicle {
        return None;
    }
    if a.total_items() + b.total_items() > config.max_items_per_vehicle {
        return None;
    }
    let mut orders = Vec::with_capacity(a.len() + b.len());
    orders.extend(a.orders.iter().copied());
    orders.extend(b.orders.iter().copied());
    let route = plan_free_start(t, &orders, legs)?;
    let weight = route.cost_secs - (a.cost_secs() + b.cost_secs());
    Some((weight, Batch { orders, route }))
}

#[cfg(test)]
mod definition;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{engine_legs, exhaustive::Rng};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::TrafficOverlay;
    use foodmatch_roadnet::{CongestionProfile, GeoPoint, RoadClass, RoadNetworkBuilder};

    fn setup() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(8, 8).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn order(id: u64, r: NodeId, c: NodeId) -> Order {
        Order::new(OrderId(id), r, c, TimePoint::from_hms(13, 0, 0), 1, Duration::from_mins(8.0))
    }

    fn default_config() -> DispatchConfig {
        DispatchConfig::default()
    }

    #[test]
    fn nearby_orders_from_same_restaurant_are_batched() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        // Two orders from the same restaurant to adjacent customers: merging
        // adds almost no detour, so they must end up in one batch.
        let orders = vec![
            order(1, b.node_at(1, 1), b.node_at(5, 5)),
            order(2, b.node_at(1, 1), b.node_at(5, 6)),
        ];
        let outcome = batch_orders(&orders, &engine, t, &default_config());
        assert_eq!(outcome.batches.len(), 1);
        assert_eq!(outcome.batches[0].len(), 2);
        assert_eq!(outcome.merges, 1);
    }

    #[test]
    fn far_apart_orders_are_never_merged() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        // Three orders in three far-apart corners: every pairwise merge would
        // add far more than η = 60 s of extra delivery time, so the per-merge
        // quality gate rejects all of them and each order stays in its own
        // batch.
        let orders = vec![
            order(1, b.node_at(0, 0), b.node_at(0, 3)),
            order(2, b.node_at(7, 7), b.node_at(7, 4)),
            order(3, b.node_at(0, 7), b.node_at(3, 7)),
        ];
        let outcome = batch_orders(&orders, &engine, t, &default_config());
        assert_eq!(outcome.merges, 0);
        assert_eq!(outcome.batches.len(), 3);
        assert!(outcome.batches.iter().all(|batch| batch.cost_secs() < 1.0));
    }

    #[test]
    fn batches_respect_maxo() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        // Five identical orders: with MAXO = 3 no batch may exceed 3 orders.
        let orders: Vec<Order> =
            (0..5).map(|i| order(i, b.node_at(2, 2), b.node_at(2, 3))).collect();
        let outcome = batch_orders(&orders, &engine, t, &default_config());
        assert!(outcome.batches.iter().all(|batch| batch.len() <= 3));
        let total: usize = outcome.batches.iter().map(Batch::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn batches_respect_maxi() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let heavy = |id: u64| {
            Order::new(
                OrderId(id),
                b.node_at(3, 3),
                b.node_at(3, 4),
                t,
                6,
                Duration::from_mins(5.0),
            )
        };
        let orders = vec![heavy(1), heavy(2)];
        // 6 + 6 = 12 items > MAXI = 10 ⇒ no merge.
        let outcome = batch_orders(&orders, &engine, t, &default_config());
        assert_eq!(outcome.batches.len(), 2);
    }

    #[test]
    fn eta_zero_disables_merging_and_large_eta_merges_aggressively() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let orders: Vec<Order> =
            (0..4).map(|i| order(i, b.node_at(2, i as usize), b.node_at(6, i as usize))).collect();

        let strict = DispatchConfig { batching_threshold: Duration::ZERO, ..default_config() };
        // AvgCost starts at 0 which is not > 0, so the very first check
        // passes, but after any merge that raises the average above zero the
        // loop stops. With distinct restaurants the first merge already costs
        // something, so at most one merge happens.
        let outcome_strict = batch_orders(&orders, &engine, t, &strict);
        assert!(outcome_strict.batches.len() >= 3);

        let generous =
            DispatchConfig { batching_threshold: Duration::from_mins(60.0), ..default_config() };
        let outcome_generous = batch_orders(&orders, &engine, t, &generous);
        assert!(outcome_generous.batches.len() <= outcome_strict.batches.len());
        // MAXO still binds.
        assert!(outcome_generous.batches.iter().all(|batch| batch.len() <= 3));
    }

    #[test]
    fn all_orders_are_preserved_exactly_once() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let orders: Vec<Order> = (0..7)
            .map(|i| {
                order(
                    i,
                    b.node_at((i % 4) as usize, (i % 3) as usize + 1),
                    b.node_at(5, (i % 5) as usize),
                )
            })
            .collect();
        let outcome = batch_orders(&orders, &engine, t, &default_config());
        let mut seen: Vec<u64> = outcome
            .batches
            .iter()
            .flat_map(|batch| batch.orders.iter().map(|o| o.id.0))
            .chain(outcome.unplannable.iter().map(|o| o.id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn singleton_batches_have_zero_cost() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let orders = vec![
            order(1, b.node_at(1, 1), b.node_at(4, 4)),
            order(2, b.node_at(6, 6), b.node_at(2, 2)),
        ];
        let outcome = singleton_batches(&orders, &engine, t);
        assert_eq!(outcome.batches.len(), 2);
        for batch in &outcome.batches {
            assert!(batch.cost_secs().abs() < 1e-6);
            assert_eq!(batch.first_pickup(), batch.orders[0].restaurant);
        }
    }

    #[test]
    fn merge_weight_is_never_negative() {
        // Theorem 2's key lemma: merging two batches can never reduce the
        // total cost below the sum of the parts.
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let config = default_config();
        let pairs = [
            (
                order(1, b.node_at(0, 0), b.node_at(4, 4)),
                order(2, b.node_at(0, 1), b.node_at(4, 5)),
            ),
            (
                order(3, b.node_at(2, 2), b.node_at(2, 3)),
                order(4, b.node_at(5, 5), b.node_at(1, 1)),
            ),
            (
                order(5, b.node_at(7, 0), b.node_at(0, 7)),
                order(6, b.node_at(0, 7), b.node_at(7, 0)),
            ),
        ];
        for (a, c) in pairs {
            let sa = singleton_batches(&[a], &engine, t).batches.remove(0);
            let sb = singleton_batches(&[c], &engine, t).batches.remove(0);
            let (w, merged) = merged_batch(&sa, &sb, t, &config, engine_legs(&engine, t)).unwrap();
            assert!(w >= -1e-6, "negative merge weight {w}");
            assert!(
                (merged.cost_secs() - (sa.cost_secs() + sb.cost_secs() + w)).abs() < 1e-6,
                "merged cost must decompose into parts plus weight"
            );
        }
    }

    #[test]
    fn final_average_cost_respects_eta_unless_nothing_merged() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(13, 0, 0);
        let config = default_config();
        let orders: Vec<Order> = (0..6)
            .map(|i| order(i, b.node_at(1, (i % 3) as usize), b.node_at(6, (i % 4) as usize)))
            .collect();
        let outcome = batch_orders(&orders, &engine, t, &config);
        // Either the run stopped because the quality bound was crossed by the
        // final merge (allowed by the algorithm, which checks before merging)
        // or no further feasible merge existed. In both cases every batch is
        // feasible and within capacity.
        for batch in &outcome.batches {
            assert!(batch.len() <= config.max_orders_per_vehicle);
            assert!(batch.total_items() <= config.max_items_per_vehicle);
        }
    }

    fn t() -> TimePoint {
        TimePoint::from_hms(13, 0, 0)
    }

    /// Oracle queries one call makes on a fresh engine, and its outcome.
    fn queries_of(orders: &[Order], config: &DispatchConfig) -> (u64, BatchingOutcome) {
        let (engine, _) = setup();
        let outcome = batch_orders(orders, &engine, t(), config);
        (engine.query_count(), outcome)
    }

    #[test]
    fn a_split_window_asks_no_leg_across_its_components() {
        let (_, b) = setup();
        // Two groups of three orders in opposite corners, ≥ 12 blocks (435 s)
        // apart. With no food to wait for and the default η, two restaurants
        // join only within R = 3 · 60 s + 1 s: five blocks (181.2 s) is
        // already too far, so the groups are two components.
        let ready = |id, r, c| Order::new(OrderId(id), r, c, t(), 1, Duration::ZERO);
        let window = vec![
            ready(1, b.node_at(0, 0), b.node_at(0, 3)),
            ready(2, b.node_at(0, 0), b.node_at(1, 3)),
            ready(3, b.node_at(1, 0), b.node_at(2, 2)),
            ready(4, b.node_at(7, 7), b.node_at(7, 4)),
            ready(5, b.node_at(7, 7), b.node_at(6, 4)),
            ready(6, b.node_at(6, 7), b.node_at(5, 5)),
        ];
        let (queries, outcome) = queries_of(&window, &default_config());
        assert!(outcome.merges >= 2, "only {} merges", outcome.merges);
        // Each of the 4 restaurants' gated sweeps asks for all 10 stops, then
        // each group's 5 stops are swept to each other and not to the other
        // group's: 2 · 5², where one table over the window was 10².
        assert_eq!(queries, 4 * 10 + 2 * 5 * 5);
    }

    #[test]
    fn a_compact_crowd_is_answered_by_its_sweeps_alone() {
        let (_, b) = setup();
        // Thirty orders from two restaurants to a row of 8 doors each, under
        // a generous η: one component. Every merge and every per-merge
        // refresh plans from the table, so twenty merges cost the sweeps —
        // both restaurants' over the 18 stops, then 18² — as none would.
        let crowd: Vec<Order> = (0..30)
            .map(|i| {
                let side = (i % 2) as usize;
                order(i, b.node_at(1 + 5 * side, 0), b.node_at(3 * side + 2, (i / 2 % 8) as usize))
            })
            .collect();
        let generous =
            DispatchConfig { batching_threshold: Duration::from_mins(60.0), ..default_config() };
        let (queries, outcome) = queries_of(&crowd, &generous);
        assert!(outcome.merges >= 10, "only {} merges", outcome.merges);
        assert_eq!(queries, 2 * 18 + 18 * 18);

        // Without batching no table is built: the singleton path as it is.
        let (engine, _) = setup();
        singleton_batches_with_threads(&crowd, &engine, t(), 1);
        let unbatched = DispatchConfig { use_batching: false, ..default_config() };
        assert_eq!(queries_of(&crowd, &unbatched).0, engine.query_count());
        assert_eq!(engine.query_count(), 30 * 4);
    }

    /// A `grid`×`grid` grid under the default (time-dependent) congestion
    /// profile whose edge lengths come from a three-value set, so that many
    /// plans tie, plus a one-way dead end and an island (the two nodes after
    /// the grid's) for the unreachable cases; optionally with every fifth edge
    /// slowed by an overlay. Deterministic in `seed`, so that two paths under
    /// comparison each get an engine of their own and neither warms the
    /// other's memo.
    pub(super) fn seeded_engine(seed: u64, overlay: bool, grid: u32) -> ShortestPathEngine {
        let mut rng = Rng(seed);
        let mut b = RoadNetworkBuilder::new();
        for i in 0..grid * grid + 2 {
            b.add_node(GeoPoint::new(0.002 * f64::from(i / grid), 0.002 * f64::from(i % grid)));
        }
        let mut street = |b: &mut RoadNetworkBuilder, u: u32, v: u32| {
            let length = [200.0, 300.0, 450.0][rng.below(3) as usize];
            let class = if rng.chance(25) { RoadClass::Arterial } else { RoadClass::Local };
            b.add_bidirectional(NodeId(u), NodeId(v), length, class);
        };
        for row in 0..grid {
            for col in 0..grid {
                let u = row * grid + col;
                if col + 1 < grid {
                    street(&mut b, u, u + 1);
                }
                if row + 1 < grid {
                    street(&mut b, u, u + grid);
                }
            }
        }
        b.add_edge(NodeId(grid * grid - 1), NodeId(grid * grid), 250.0, RoadClass::Local);
        let engine = ShortestPathEngine::cached(b.build());
        if overlay {
            let mut slowed = TrafficOverlay::new();
            for edge in engine.network().edge_ids().step_by(5) {
                slowed.slow_edge(edge, 2.5);
            }
            engine.set_overlay(slowed);
        }
        engine
    }

    /// The split windows' grid: wide enough that its corners lie farther
    /// apart than `s + MAXO·η` for the two smaller η.
    pub(super) const SPLIT_GRID: u32 = 24;
    const CORNERS: [(u32, u32); 3] = [(3, 3), (20, 20), (3, 20)];

    /// One window per `(len, corners)` of `shapes`, drawn from `seed`: `len`
    /// orders around the split grid's first `corners` corners, each window
    /// with the seed of its engines. Every order's restaurant lies
    /// within a block of its corner and its customer within two, and its
    /// food is ready in the five minutes after `t` (mostly: the order was
    /// placed up to three minutes before), so the window falls apart into
    /// components unless η is large, and its first merges are cheap.
    pub(super) fn split_windows(
        t: TimePoint,
        shapes: &[(u64, u64)],
        seed: u64,
    ) -> Vec<(u64, Vec<Order>)> {
        let mut rng = Rng(seed);
        let windows = shapes.iter().zip(seed..).map(|(&(len, corners), seed)| {
            let orders = (0..len).map(|id| {
                let (row, col) = CORNERS[rng.below(corners) as usize];
                let mut near = |blocks: u32| {
                    let span = u64::from(2 * blocks + 1);
                    let (dr, dc) = (rng.below(span) as u32, rng.below(span) as u32);
                    NodeId((row + dr - blocks) * SPLIT_GRID + col + dc - blocks)
                };
                let (restaurant, customer) = (near(1), near(2));
                let placed_at = t - Duration::from_secs_f64(rng.below(180) as f64);
                let prep_time = Duration::from_mins(3.0 + rng.below(3) as f64);
                // At most 2 items, so that MAXI = 10 never binds before MAXO.
                let items = 1 + rng.below(2) as u32;
                Order::new(OrderId(id), restaurant, customer, placed_at, items, prep_time)
            });
            (seed, orders.collect())
        });
        windows.collect()
    }

    /// The split windows of 6 to 20 orders that the tests share.
    pub(super) const SPLIT_SHAPES: [(u64, u64); 5] = [(6, 2), (9, 3), (12, 2), (16, 3), (20, 3)];

    /// MAXO 3 and 5, each under η = 0, 60 s and 60 min.
    pub(super) fn split_configs() -> Vec<DispatchConfig> {
        let etas = [Duration::ZERO, Duration::from_secs_f64(60.0), Duration::from_mins(60.0)];
        let maxos = [3, 5].into_iter();
        let configs = maxos.flat_map(|max_orders_per_vehicle| {
            etas.map(|batching_threshold| DispatchConfig {
                batching_threshold,
                max_orders_per_vehicle,
                num_threads: 1,
                ..Default::default()
            })
        });
        configs.collect()
    }

    #[test]
    fn no_two_singletons_of_different_components_pass_the_gate() {
        let t = TimePoint::from_hms(12, 59, 40);
        let mut apart = 0;
        for (seed, orders) in split_windows(t, &SPLIT_SHAPES, 0x5917) {
            for overlay in [false, true] {
                let engine = seeded_engine(seed, overlay, SPLIT_GRID);
                let singles = singleton_batches(&orders, &engine, t).batches;
                for config in split_configs() {
                    let components = Components::of_window(&orders, &engine, t, &config, 1);
                    let component = |batch: &Batch| components.of(batch.orders[0].restaurant);
                    let gate = config.batching_threshold.as_secs_f64() * 2.0;
                    for (i, a) in singles.iter().enumerate() {
                        for b in singles[i + 1..].iter().filter(|&b| component(a) != component(b)) {
                            let (weight, _) =
                                merged_batch(a, b, t, &config, engine_legs(&engine, t))
                                    .expect("two orders of at most 2 items and reachable stops");
                            assert!(weight > gate, "seed {seed}, {config:?}: {weight} ≤ {gate}");
                            apart += 1;
                        }
                    }
                }
            }
        }
        assert!(apart > 1000, "only {apart} pairs across components");
    }
}
