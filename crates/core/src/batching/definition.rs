//! Algorithm 1's ground truth: the clustering as the paper states it.
//!
//! [`Definition::batch`] seeds one cluster per plannable order, then at every
//! step prices every pair of live clusters (Eq. 5) with
//! `plan_optimal_route_free_start` over the engine (which `route::exhaustive`
//! pins to brute force), keeps the pairs that MAXO, MAXI and the per-merge
//! gate allow, and merges the first cheapest one, until the average cluster
//! cost exceeds η or no merge is left. It has no components, no leg rows and
//! no cached candidates. `batch_orders` is pinned to it bit for bit, and on
//! windows of at most seven orders the greedy is held against the best
//! partition found by trying every one (see `pinned_to_definition` below).

use super::*;
use std::collections::HashMap;

/// Algorithm 1 over `engine` at `t`. Every plan it makes is kept by the ids
/// of its orders, in order, so that a pair is planned once however often it
/// is priced.
struct Definition<'a> {
    engine: &'a ShortestPathEngine,
    t: TimePoint,
    plans: HashMap<Vec<OrderId>, Option<EvaluatedRoute>>,
}

impl<'a> Definition<'a> {
    fn new(engine: &'a ShortestPathEngine, t: TimePoint) -> Self {
        Definition { engine, t, plans: HashMap::new() }
    }

    fn plan(&mut self, orders: &[Order]) -> Option<EvaluatedRoute> {
        let (engine, t) = (self.engine, self.t);
        let key = orders.iter().map(|o| o.id).collect();
        let plan = self.plans.entry(key).or_insert_with(|| {
            let planned: Vec<PlannedOrder> =
                orders.iter().map(|&o| PlannedOrder::pending(o)).collect();
            plan_optimal_route_free_start(t, &planned, engine)
        });
        plan.clone()
    }

    fn batch(&mut self, orders: &[Order], config: &DispatchConfig) -> BatchingOutcome {
        let (mut clusters, mut unplannable) = (Vec::new(), Vec::new());
        for &order in orders {
            match self.plan(&[order]) {
                Some(route) => clusters.push(Batch { orders: vec![order], route }),
                None => unplannable.push(order),
            }
        }
        let eta_secs = config.batching_threshold.as_secs_f64();
        let mut merges = 0;
        while clusters.len() > 1 {
            let total_cost: f64 = clusters.iter().map(Batch::cost_secs).sum();
            if total_cost / clusters.len() as f64 > eta_secs {
                break;
            }
            let mut cheapest: Option<(f64, usize, usize, Batch)> = None;
            for i in 0..clusters.len() {
                for j in i + 1..clusters.len() {
                    let (a, b) = (&clusters[i], &clusters[j]);
                    if a.len() + b.len() > config.max_orders_per_vehicle
                        || a.total_items() + b.total_items() > config.max_items_per_vehicle
                    {
                        continue;
                    }
                    let orders: Vec<Order> = a.orders.iter().chain(&b.orders).copied().collect();
                    let Some(route) = self.plan(&orders) else { continue };
                    let weight = route.cost_secs - (a.cost_secs() + b.cost_secs());
                    let passes_gate = weight <= eta_secs * orders.len() as f64;
                    if passes_gate && cheapest.as_ref().is_none_or(|c| weight < c.0) {
                        cheapest = Some((weight, i, j, Batch { orders, route }));
                    }
                }
            }
            let Some((_, i, j, merged)) = cheapest else { break };
            clusters[i] = merged;
            clusters.remove(j);
            merges += 1;
        }
        BatchingOutcome { batches: clusters, unplannable, merges }
    }
}

mod pinned_to_definition {
    use super::super::tests::{
        seeded_engine, split_configs, split_windows, SPLIT_GRID, SPLIT_SHAPES,
    };
    use super::*;
    use crate::route::engine_legs;
    use crate::route::exhaustive::{plan_exhaustively, Rng};

    const GRID: u32 = 7;
    /// Reachable from the grid, but a dead end: nothing is reachable from it.
    const DEAD_END: NodeId = NodeId(GRID * GRID);
    /// Connected to nothing.
    const ISLAND: NodeId = NodeId(GRID * GRID + 1);

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

    fn assert_same(got: &BatchingOutcome, want: &BatchingOutcome, what: &str) {
        assert_eq!(got.batches.len(), want.batches.len(), "{what}");
        for (g, w) in got.batches.iter().zip(&want.batches) {
            assert_eq!(g.orders, w.orders, "{what}");
            // The plan…
            assert_eq!(g.route, w.route, "{what}");
            // …and its cost to the bit.
            assert_eq!(g.route.cost_secs.to_bits(), w.route.cost_secs.to_bits(), "{what}");
        }
        assert_eq!(got.unplannable, want.unplannable, "{what}");
        assert_eq!(got.merges, want.merges, "{what}");
    }

    /// η = 0, the default 60 s and 60 min.
    fn etas() -> [Duration; 3] {
        [Duration::ZERO, DispatchConfig::default().batching_threshold, Duration::from_mins(60.0)]
    }

    #[test]
    fn batch_orders_matches_the_definition_on_random_windows() {
        let mut rng = Rng(0xBA7C);
        // Either side of an hour-slot boundary: the second `t` starts on a
        // cold memo slot (and on other edge weights).
        let times = [TimePoint::from_hms(12, 59, 40), TimePoint::from_hms(13, 0, 20)];
        let (mut merges, mut triples, mut unplannable) = (0, 0, 0);
        let (mut gate_rejected, mut maxi_refused) = (0, 0);
        for (round, len) in [0, 1, 2, 2, 2, 3, 6, 12, 40, 40].into_iter().enumerate() {
            let orders = window(&mut rng, len, times[0]);
            for overlay in [false, true] {
                let seed = 0x5EED + round as u64;
                let engine = seeded_engine(seed, overlay, GRID);
                let truth_engine = seeded_engine(seed, overlay, GRID);
                for t in times {
                    let mut truth = Definition::new(&truth_engine, t);
                    for batching_threshold in etas() {
                        let config = DispatchConfig { batching_threshold, ..Default::default() };
                        let want = truth.batch(&orders, &config);
                        for num_threads in [1, 4] {
                            let config = DispatchConfig { num_threads, ..config.clone() };
                            let what = format!(
                                "round {round}, overlay {overlay}, t {t:?}, \
                                 η {batching_threshold:?}, {num_threads} threads: {orders:?}"
                            );
                            assert_same(&batch_orders(&orders, &engine, t, &config), &want, &what);
                            merges += want.merges;
                            triples += want.batches.iter().filter(|b| b.len() == 3).count();
                            unplannable += want.unplannable.len();
                        }
                    }
                }
                // Pairs of orders the default η's gate, or MAXI, refuses.
                let (config, t) = (DispatchConfig::default(), times[0]);
                let singles = singleton_batches(&orders, &truth_engine, t).batches;
                for (i, a) in singles.iter().enumerate() {
                    for b in &singles[i + 1..] {
                        match merged_batch(a, b, t, &config, engine_legs(&truth_engine, t)) {
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

    #[test]
    fn batch_orders_matches_the_definition_on_split_windows() {
        let t = TimePoint::from_hms(12, 59, 40);
        let (mut split, mut split_merges) = (0, 0);
        for (seed, orders) in split_windows(t, &SPLIT_SHAPES, 0x5917) {
            for overlay in [false, true] {
                let engine = seeded_engine(seed, overlay, SPLIT_GRID);
                let truth_engine = seeded_engine(seed, overlay, SPLIT_GRID);
                let mut truth = Definition::new(&truth_engine, t);
                for config in split_configs() {
                    let what = format!(
                        "seed {seed}, overlay {overlay}, MAXO {}, η {:?}: {orders:?}",
                        config.max_orders_per_vehicle, config.batching_threshold
                    );
                    let want = truth.batch(&orders, &config);
                    assert_same(&batch_orders(&orders, &engine, t, &config), &want, &what);
                    let components = Components::of_window(&orders, &truth_engine, t, &config, 1);
                    if components.root.iter().any(|&root| root != 0) {
                        split += 1;
                        split_merges += want.merges;
                    }
                }
            }
        }
        // 60 runs, 40 under the two smaller η; η = 60 min never splits one.
        assert!(split >= 30, "only {split} split windows");
        assert!(split_merges > 100, "only {split_merges} merges inside split windows");
    }

    /// `OPT(k)` for every `k` (`INFINITY` where no partition has `k`
    /// blocks): the least total cost over the set partitions of the orders
    /// in the bit mask `rest` whose every block has a cost, `cost[block]`.
    fn best_partitions(cost: &[Option<f64>], rest: usize) -> Vec<f64> {
        fn split(rest: usize, k: usize, total: f64, cost: &[Option<f64>], best: &mut [f64]) {
            if rest == 0 {
                best[k] = best[k].min(total);
                return;
            }
            // The block of the lowest order left, with every subset of the
            // others: each partition once.
            let first = rest & rest.wrapping_neg();
            let others = rest & !first;
            let mut with = others;
            loop {
                if let Some(block) = cost[first | with] {
                    split(others & !with, k + 1, total + block, cost, best);
                }
                if with == 0 {
                    break;
                }
                with = (with - 1) & others;
            }
        }
        let mut best = vec![f64::INFINITY; rest.count_ones() as usize + 1];
        split(rest, 0, 0.0, cost, &mut best);
        best
    }

    #[test]
    fn the_greedy_is_priced_by_brute_force_and_bounded_by_the_best_partition() {
        let t = TimePoint::from_hms(12, 59, 40);
        let mut rng = Rng(0x0B7);
        let mut windows: Vec<(u64, u32, Vec<Order>)> = (0..60)
            .map(|round| (0x0B7 + round, GRID, window(&mut rng, 2 + round % 6, t)))
            .collect();
        let shapes: Vec<(u64, u64)> = (0..24).map(|i| (4 + i % 4, 2 + i % 2)).collect();
        let split = split_windows(t, &shapes, 0x0B75);
        windows.extend(split.into_iter().map(|(seed, orders)| (seed, SPLIT_GRID, orders)));

        let config = DispatchConfig::default();
        let (mut runs, mut split_runs, mut gaps) = (0, 0, Vec::new());
        for (seed, grid, orders) in windows {
            let engine = seeded_engine(seed, false, grid);
            // Every subset of the window, as a bit mask over `orders`: its
            // brute-force cost, or `None` past MAXO or MAXI or unplannable.
            let cost: Vec<Option<f64>> = (0..1usize << orders.len())
                .map(|mask| {
                    let block: Vec<PlannedOrder> = (0..orders.len())
                        .filter(|&o| mask & 1 << o != 0)
                        .map(|o| PlannedOrder::pending(orders[o]))
                        .collect();
                    let items: u32 = block.iter().map(|p| p.order.items).sum();
                    let fits = (1..=config.max_orders_per_vehicle).contains(&block.len())
                        && items <= config.max_items_per_vehicle;
                    let plan = fits.then(|| plan_exhaustively(None, t, &block, &engine));
                    Some(plan??.cost_secs)
                })
                .collect();
            let mask_of = |batch: &[Order]| {
                batch
                    .iter()
                    .map(|o| 1 << orders.iter().position(|p| p.id == o.id).unwrap())
                    .sum::<usize>()
            };
            let plannable: usize =
                (0..orders.len()).map(|o| 1 << o).filter(|&o| cost[o].is_some()).sum();
            let best = best_partitions(&cost, plannable);
            for batching_threshold in etas() {
                let config = DispatchConfig { batching_threshold, ..config.clone() };
                let greedy = batch_orders(&orders, &engine, t, &config);
                let what = format!("seed {seed}, η {batching_threshold:?}: {orders:?}");
                let planned = mask_of(&greedy.unplannable) ^ ((1 << orders.len()) - 1);
                assert_eq!(planned, plannable, "{what}");
                for batch in &greedy.batches {
                    let block = cost[mask_of(&batch.orders)].expect("a batch fits and is planned");
                    assert_eq!(batch.cost_secs().to_bits(), block.to_bits(), "{what}");
                }
                let total: f64 = greedy.batches.iter().map(Batch::cost_secs).sum();
                let opt = best[greedy.batches.len()];
                assert!(opt <= total + 1e-6, "{what}: OPT {opt} > greedy {total}");
                let components = Components::of_window(&orders, &engine, t, &config, 1);
                split_runs += usize::from(components.root.iter().any(|&root| root != 0));
                runs += 1;
                gaps.push(total - opt);
            }
        }
        assert!(runs >= 250, "only {runs} windows");
        assert!(split_runs >= 30, "only {split_runs} split windows");
        // The greedy-merge gap, for the record (`-- --nocapture`).
        let mut gaps: Vec<f64> = gaps.into_iter().filter(|&gap| gap > 1e-6).collect();
        gaps.sort_by(f64::total_cmp);
        let (median, max) = (gaps.get(gaps.len() / 2).unwrap_or(&0.0), gaps.last().unwrap_or(&0.0));
        println!(
            "greedy − OPT(k) > 0 on {} of {runs} windows: median {median:.1} s, max {max:.1} s",
            gaps.len()
        );
    }
}
