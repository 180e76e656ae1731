//! Algorithm 1 as this crate ran it before the window's stop-leg matrix,
//! kept verbatim (but for the `_per_pair` names) as the reference
//! `batch_orders` is pinned to: same batches in the same order, same plans,
//! same `cost_secs` bits, same `unplannable`, `merges` and
//! `final_avg_cost_secs` bits on seeded random windows (see
//! `pinned_to_reference` below).
//!
//! Every merge candidate fills its own leg table from the engine
//! (`plan_optimal_route_free_start`): up to four bounded searches per pair,
//! from stops the next pair searches from again.

use super::*;

pub(crate) fn batch_orders_per_pair(
    orders: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> BatchingOutcome {
    let threads = config.effective_threads();
    // Fan out only when the window carries enough work to amortise the
    // thread spawns; the result is identical either way.
    let singleton_threads = if orders.len() >= 16 { threads } else { 1 };
    let seed = singleton_batches_with_threads(orders, engine, t, singleton_threads);
    if !config.use_batching || seed.batches.len() < 2 {
        return seed;
    }
    let unplannable = seed.unplannable;
    let eta_secs = config.batching_threshold.as_secs_f64();

    // Clusters are slots that may be emptied by merges; `version` lets the
    // lazy heap detect stale candidates.
    let mut clusters: Vec<Option<Batch>> = seed.batches.into_iter().map(Some).collect();
    let mut versions: Vec<u64> = vec![0; clusters.len()];
    let mut active = clusters.len();
    let mut total_cost: f64 = clusters.iter().flatten().map(Batch::cost_secs).sum();
    let mut merges = 0usize;

    // The O(n²) initial pairwise evaluation dominates the clustering stage;
    // fan it out across the dispatch workers. The heap's total order breaks
    // every tie by (i, j), so the merge sequence — and therefore the final
    // batching — is independent of how the candidates were computed.
    let pairs: Vec<(usize, usize)> =
        (0..clusters.len()).flat_map(|i| ((i + 1)..clusters.len()).map(move |j| (i, j))).collect();
    let pair_threads = if pairs.len() >= 32 { threads } else { 1 };
    let mut heap: BinaryHeap<MergeCandidate> = parallel_map(&pairs, pair_threads, |_, &(i, j)| {
        candidate_per_pair(&clusters, &versions, i, j, engine, t, config)
    })
    .into_iter()
    .flatten()
    .collect();

    while active > 1 {
        let avg = total_cost / active as f64;
        if avg > eta_secs {
            break;
        }
        // Pop candidates until a non-stale one appears.
        let candidate = loop {
            match heap.pop() {
                Some(c) => {
                    let fresh = clusters[c.i].is_some()
                        && clusters[c.j].is_some()
                        && versions[c.i] == c.version_i
                        && versions[c.j] == c.version_j;
                    if fresh {
                        break Some(c);
                    }
                }
                None => break None,
            }
        };
        let Some(candidate) = candidate else { break };

        // Perform the merge recorded in the candidate.
        let left = clusters[candidate.i].take().expect("fresh candidate");
        let right = clusters[candidate.j].take().expect("fresh candidate");
        versions[candidate.i] += 1;
        versions[candidate.j] += 1;
        total_cost -= left.cost_secs() + right.cost_secs();
        total_cost += candidate.merged.cost_secs();
        active -= 1;
        merges += 1;

        let slot = candidate.i;
        clusters[slot] = Some(candidate.merged);
        versions[slot] += 1;
        // Refresh the merged cluster's edges to every survivor; this is the
        // serial tail of Algorithm 1, so fan it out like the initial pass.
        let others: Vec<usize> =
            (0..clusters.len()).filter(|&o| o != slot && clusters[o].is_some()).collect();
        let refresh_threads = if others.len() >= 32 { threads } else { 1 };
        for candidate in parallel_map(&others, refresh_threads, |_, &other| {
            let (a, b) = (slot.min(other), slot.max(other));
            candidate_per_pair(&clusters, &versions, a, b, engine, t, config)
        })
        .into_iter()
        .flatten()
        {
            heap.push(candidate);
        }
    }

    let batches: Vec<Batch> = clusters.into_iter().flatten().collect();
    let final_avg_cost_secs = average_cost(&batches);
    BatchingOutcome { batches, unplannable, merges, final_avg_cost_secs }
}

/// Evaluates the merge of clusters `i` and `j` into a heap candidate, or
/// `None` when the merge is infeasible or fails the quality gate. Pure with
/// respect to the clustering state, so candidates can be computed in
/// parallel.
fn candidate_per_pair(
    clusters: &[Option<Batch>],
    versions: &[u64],
    i: usize,
    j: usize,
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> Option<MergeCandidate> {
    let (Some(a), Some(b)) = (&clusters[i], &clusters[j]) else { return None };
    let (weight, merged) = merge_weight_per_pair(a, b, engine, t, config)?;
    // Per-merge quality gate: a merge that by itself adds more extra delivery
    // time than the quality threshold η can never be "orders that suffer no
    // long detour" (§IV-B). Algorithm 1 as written only checks the *average*
    // cost before merging, which lets one arbitrarily bad merge through when
    // the window is sparse (the initial average is always zero); gating the
    // edge weight keeps the same convergence argument (weights are
    // non-negative, Theorem 2) while preventing that pathology. Documented as
    // a stabilising interpretation.
    if weight > config.batching_threshold.as_secs_f64() * merged.len() as f64 {
        return None;
    }
    Some(MergeCandidate { weight, i, j, version_i: versions[i], version_j: versions[j], merged })
}

/// Computes the order-graph edge weight between two batches (Eq. 5) and the
/// merged batch, or `None` if the merge is infeasible (capacity or
/// unreachable stops).
fn merge_weight_per_pair(
    a: &Batch,
    b: &Batch,
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
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
    let planned: Vec<PlannedOrder> = orders.iter().copied().map(PlannedOrder::pending).collect();
    let route = plan_optimal_route_free_start(t, &planned, engine)?;
    let weight = route.cost_secs - (a.cost_secs() + b.cost_secs());
    Some((weight, Batch { orders, route }))
}

mod pinned_to_reference {
    use super::*;
    use crate::route::reference::Rng;
    use foodmatch_roadnet::{Duration, GeoPoint, RoadClass, RoadNetworkBuilder, TrafficOverlay};

    const GRID: u32 = 7;
    /// Reachable from the grid, but a dead end: nothing is reachable from it.
    const DEAD_END: NodeId = NodeId(GRID * GRID);
    /// Connected to nothing.
    const ISLAND: NodeId = NodeId(GRID * GRID + 1);

    /// A 7×7 grid under the default (time-dependent) congestion profile whose
    /// edge lengths come from a three-value set, so that many plans tie, plus
    /// a one-way dead end and an island for the unreachable cases; optionally
    /// with every fifth edge slowed by an overlay. Deterministic in `seed`, so
    /// the reference and the new path each get an engine of their own over
    /// the same network and neither warms the other's memo.
    fn engine(seed: u64, overlay: bool) -> ShortestPathEngine {
        let mut rng = Rng(seed);
        let mut b = RoadNetworkBuilder::new();
        for i in 0..GRID * GRID + 2 {
            b.add_node(GeoPoint::new(0.002 * f64::from(i / GRID), 0.002 * f64::from(i % GRID)));
        }
        let mut street = |b: &mut RoadNetworkBuilder, u: u32, v: u32| {
            let length = [200.0, 300.0, 450.0][rng.below(3) as usize];
            let class = if rng.chance(25) { RoadClass::Arterial } else { RoadClass::Local };
            b.add_bidirectional(NodeId(u), NodeId(v), length, class);
        };
        for row in 0..GRID {
            for col in 0..GRID {
                let u = row * GRID + col;
                if col + 1 < GRID {
                    street(&mut b, u, u + 1);
                }
                if row + 1 < GRID {
                    street(&mut b, u, u + GRID);
                }
            }
        }
        b.add_edge(NodeId(GRID * GRID - 1), DEAD_END, 250.0, RoadClass::Local);
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

    fn node(rng: &mut Rng) -> NodeId {
        match rng.below(60) {
            0 => DEAD_END,
            1 => ISLAND,
            _ => NodeId(rng.below(u64::from(GRID * GRID)) as u32),
        }
    }

    /// `len` orders placed in the twenty minutes before `t`.
    fn window(rng: &mut Rng, len: u64, t: TimePoint) -> Vec<Order> {
        let mut orders: Vec<Order> = Vec::new();
        for id in 0..len {
            let earlier =
                (!orders.is_empty()).then(|| orders[rng.below(orders.len() as u64) as usize]);
            let (restaurant, customer) = match earlier {
                Some(o) if rng.chance(10) => (o.restaurant, o.customer), // duplicate order
                Some(o) if rng.chance(30) => (o.restaurant, node(rng)),  // shared restaurant
                Some(o) if rng.chance(15) => (node(rng), o.restaurant),  // customer at a restaurant
                Some(o) if rng.chance(15) => (node(rng), o.customer),    // two orders, one door
                _ => (node(rng), node(rng)),
            };
            let placed_at = t - Duration::from_secs_f64(rng.below(1200) as f64);
            // Whole minutes, so that "food not ready yet" waits tie too; up
            // to 6 items, so that MAXI = 10 refuses some pairs.
            let prep_time = Duration::from_mins(rng.below(25) as f64);
            let items = 1 + rng.below(6) as u32;
            orders.push(Order::new(OrderId(id), restaurant, customer, placed_at, items, prep_time));
        }
        orders
    }

    fn assert_same(new: &BatchingOutcome, old: &BatchingOutcome, what: &str) {
        assert_eq!(new.batches.len(), old.batches.len(), "{what}");
        for (n, o) in new.batches.iter().zip(&old.batches) {
            assert_eq!(n.orders, o.orders, "{what}");
            // Plan, deliveries, `finish_at` and the rest of the route…
            assert_eq!(n.route, o.route, "{what}");
            // …and the costs to the bit.
            assert_eq!(n.route.cost_secs.to_bits(), o.route.cost_secs.to_bits(), "{what}");
            for (n, o) in n.route.deliveries.iter().zip(&o.route.deliveries) {
                assert_eq!(n.xdt_secs.to_bits(), o.xdt_secs.to_bits(), "{what}");
            }
        }
        assert_eq!(new.unplannable, old.unplannable, "{what}");
        assert_eq!(new.merges, old.merges, "{what}");
        assert_eq!(new.final_avg_cost_secs.to_bits(), old.final_avg_cost_secs.to_bits(), "{what}");
    }

    #[test]
    fn matrix_path_matches_the_per_pair_path_on_random_windows() {
        let mut rng = Rng(0xBA7C);
        // Either side of an hour-slot boundary: the second `t` starts on a
        // cold memo slot (and on other edge weights).
        let times = [TimePoint::from_hms(12, 59, 40), TimePoint::from_hms(13, 0, 20)];
        let etas = [
            Duration::ZERO,
            DispatchConfig::default().batching_threshold,
            Duration::from_mins(60.0),
        ];
        let (mut merges, mut triples, mut unplannable) = (0, 0, 0);
        let (mut gate_rejected, mut maxi_refused) = (0, 0);
        for (round, len) in [0, 1, 2, 2, 2, 3, 6, 12, 40, 40].into_iter().enumerate() {
            let orders = window(&mut rng, len, times[0]);
            for overlay in [false, true] {
                let seed = 0x5EED + round as u64;
                let (new_engine, old_engine) = (engine(seed, overlay), engine(seed, overlay));
                for t in times {
                    for eta in etas {
                        for num_threads in [1, 4] {
                            let config = DispatchConfig {
                                batching_threshold: eta,
                                num_threads,
                                ..Default::default()
                            };
                            let what = format!(
                                "round {round}, overlay {overlay}, t {t:?}, η {eta:?}, \
                                 {num_threads} threads: {orders:?}"
                            );
                            let new = batch_orders(&orders, &new_engine, t, &config);
                            let old = batch_orders_per_pair(&orders, &old_engine, t, &config);
                            assert_same(&new, &old, &what);
                            merges += old.merges;
                            triples += old.batches.iter().filter(|b| b.len() == 3).count();
                            unplannable += old.unplannable.len();
                        }
                    }
                }
                // Pairs of orders the default η's gate, or MAXI, refuses.
                let config = DispatchConfig::default();
                let singles = singleton_batches(&orders, &old_engine, times[0]).batches;
                for (i, a) in singles.iter().enumerate() {
                    for b in &singles[i + 1..] {
                        match merge_weight(a, b, &old_engine, times[0], &config) {
                            Some((weight, _)) => {
                                let gate = config.batching_threshold.as_secs_f64() * 2.0;
                                gate_rejected += usize::from(weight > gate);
                            }
                            None => {
                                let items = a.total_items() + b.total_items();
                                maxi_refused += usize::from(items > config.max_items_per_vehicle);
                            }
                        }
                    }
                }
            }
        }
        // The generator must actually reach the cases it exists for.
        assert!(merges > 100, "only {merges} merges");
        assert!(triples > 20, "only {triples} MAXO-bound batches of three orders");
        assert!(unplannable > 10, "only {unplannable} unplannable orders");
        assert!(gate_rejected > 100, "only {gate_rejected} gate-rejected pairs");
        assert!(maxi_refused > 20, "only {maxi_refused} MAXI-refused pairs");
    }
}
