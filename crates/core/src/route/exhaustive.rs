//! The route planner's ground truth: Definition 3 by brute force.
//!
//! [`plan_exhaustively`] enumerates every precedence-respecting stop order
//! with no pruning, prices every leg with its own `engine.travel_time`, and
//! keeps the first strictly cheaper tour in the planner's depth-first order
//! (at every stop, the orders by ascending index). [`plan_optimal_route`] and
//! [`plan_optimal_route_free_start`] are pinned to it bit for bit: plan,
//! `cost_secs`, every delivery's `xdt_secs`, `finish_at` and `None`-ness.

use super::*;

/// The quickest plan for `orders` from `start` (`None`: a free start, whose
/// first leg costs nothing) at `start_time`, found by trying every tour.
pub(crate) fn plan_exhaustively(
    start: Option<NodeId>,
    start_time: TimePoint,
    orders: &[PlannedOrder],
    engine: &ShortestPathEngine,
) -> Option<EvaluatedRoute> {
    let mut sdt_secs = Vec::with_capacity(orders.len());
    for planned in orders {
        let sp =
            engine.travel_time(planned.order.restaurant, planned.order.customer, start_time)?;
        sdt_secs.push(planned.order.prep_time.as_secs_f64() + sp.as_secs_f64());
    }
    let mut states: Vec<OrderState> = orders
        .iter()
        .map(|p| if p.picked_up { OrderState::OnBoard } else { OrderState::NeedsPickup })
        .collect();
    let tour = Tour {
        at: start,
        now: start_time,
        stops: Vec::new(),
        deliveries: Vec::new(),
        cost_secs: 0.0,
        driving_secs: 0.0,
        waiting_secs: 0.0,
    };
    let mut search = Enumeration { orders, sdt_secs, engine, start_time, best: None };
    search.visit(tour, &mut states);
    let best = search.best?;
    Some(EvaluatedRoute {
        start_node: start.or(best.stops.first().map(|s| s.node)).unwrap_or(NodeId(0)),
        plan: RoutePlan { stops: best.stops },
        cost_secs: best.cost_secs,
        driving_time: Duration::from_secs_f64(best.driving_secs),
        waiting_time: Duration::from_secs_f64(best.waiting_secs),
        deliveries: best.deliveries,
        finish_at: best.now,
    })
}

/// A partial tour: where it stands and what it has cost so far.
#[derive(Clone)]
struct Tour {
    at: Option<NodeId>,
    now: TimePoint,
    stops: Vec<Stop>,
    deliveries: Vec<ProjectedDelivery>,
    cost_secs: f64,
    driving_secs: f64,
    waiting_secs: f64,
}

struct Enumeration<'a> {
    orders: &'a [PlannedOrder],
    sdt_secs: Vec<f64>,
    engine: &'a ShortestPathEngine,
    start_time: TimePoint,
    best: Option<Tour>,
}

impl Enumeration<'_> {
    fn visit(&mut self, tour: Tour, states: &mut [OrderState]) {
        if states.iter().all(|&s| s == OrderState::Delivered) {
            if self.best.as_ref().is_none_or(|best| tour.cost_secs < best.cost_secs) {
                self.best = Some(tour);
            }
            return;
        }
        for i in 0..states.len() {
            let order = self.orders[i].order;
            let state = states[i];
            let (node, action) = match state {
                OrderState::NeedsPickup => (order.restaurant, StopAction::Pickup),
                OrderState::OnBoard => (order.customer, StopAction::Dropoff),
                OrderState::Delivered => continue,
            };
            let travel = match tour.at {
                Some(from) => match self.engine.travel_time(from, node, self.start_time) {
                    Some(leg) => leg.as_secs_f64(),
                    None => continue,
                },
                None => 0.0,
            };
            let arrival = tour.now + Duration::from_secs_f64(travel);
            let mut next = tour.clone();
            next.at = Some(node);
            next.now = arrival;
            next.driving_secs += travel;
            next.stops.push(Stop { order: order.id, node, action });
            match action {
                StopAction::Pickup => {
                    states[i] = OrderState::OnBoard;
                    next.now = arrival.max(order.ready_at());
                    next.waiting_secs += next.now.saturating_since(arrival).as_secs_f64();
                }
                StopAction::Dropoff => {
                    states[i] = OrderState::Delivered;
                    let edt = arrival.saturating_since(order.placed_at).as_secs_f64();
                    let xdt = edt - self.sdt_secs[i];
                    next.cost_secs += xdt;
                    next.deliveries.push(ProjectedDelivery {
                        order: order.id,
                        delivered_at: arrival,
                        xdt_secs: xdt,
                    });
                }
            }
            self.visit(next, states);
            states[i] = state;
        }
    }
}

/// SplitMix64: a seeded stream without a dev-dependency.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

mod pinned_to_brute_force {
    use super::*;
    use foodmatch_roadnet::{GeoPoint, RoadClass, RoadNetworkBuilder, TrafficOverlay};

    const GRID: u32 = 4;
    /// Reachable from the grid, but a dead end: nothing is reachable from it.
    const DEAD_END: NodeId = NodeId(GRID * GRID);
    /// Connected to nothing.
    const ISLAND: NodeId = NodeId(GRID * GRID + 1);

    /// A 4×4 grid whose edge lengths come from a two-value set, so that many
    /// tours tie on cost and the first-found rule decides, plus a one-way
    /// dead end and an island for the unreachable cases.
    fn network(rng: &mut Rng) -> ShortestPathEngine {
        let mut b = RoadNetworkBuilder::new();
        for i in 0..GRID * GRID + 2 {
            b.add_node(GeoPoint::new(0.001 * f64::from(i / GRID), 0.001 * f64::from(i % GRID)));
        }
        let mut street = |b: &mut RoadNetworkBuilder, u: u32, v: u32| {
            let length = if rng.chance(50) { 200.0 } else { 300.0 };
            b.add_bidirectional(NodeId(u), NodeId(v), length, RoadClass::Local);
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
        ShortestPathEngine::cached(b.build())
    }

    fn node(rng: &mut Rng) -> NodeId {
        match rng.below(40) {
            0 => DEAD_END,
            1 => ISLAND,
            _ => NodeId(rng.below(u64::from(GRID * GRID)) as u32),
        }
    }

    fn instance(rng: &mut Rng, t: TimePoint) -> Vec<PlannedOrder> {
        let mut orders: Vec<PlannedOrder> = Vec::new();
        for id in 0..rng.below(5) {
            let earlier =
                (!orders.is_empty()).then(|| orders[rng.below(orders.len() as u64) as usize].order);
            let restaurant = match earlier {
                Some(o) if rng.chance(30) => o.restaurant, // shared restaurant
                _ => node(rng),
            };
            let customer = match earlier {
                Some(o) if rng.chance(15) => o.restaurant, // customer at a restaurant
                Some(o) if rng.chance(15) => o.customer,   // two orders, one door
                _ => node(rng),
            };
            let placed_at = t - Duration::from_secs_f64(rng.below(1200) as f64);
            // Whole minutes, so that "food not ready yet" waits tie too.
            let prep_time = Duration::from_mins(rng.below(25) as f64);
            let order = Order::new(OrderId(id), restaurant, customer, placed_at, 1, prep_time);
            orders.push(PlannedOrder { order, picked_up: rng.chance(30) });
        }
        orders
    }

    fn assert_same(planned: &Option<EvaluatedRoute>, truth: &Option<EvaluatedRoute>, what: &str) {
        assert_eq!(planned, truth, "{what}");
        if let (Some(planned), Some(truth)) = (planned, truth) {
            assert_eq!(planned.cost_secs.to_bits(), truth.cost_secs.to_bits(), "{what}");
            for (p, t) in planned.deliveries.iter().zip(&truth.deliveries) {
                assert_eq!(p.xdt_secs.to_bits(), t.xdt_secs.to_bits(), "{what}");
            }
        }
    }

    /// What the seeded loop below covered.
    #[derive(Default)]
    struct Coverage {
        unplannable: usize,
        on_a_stop: usize,
        on_a_later_stop: usize,
        tied: usize,
        negative: usize,
    }

    /// Whether a tour for `orders` stops at `node`.
    fn is_a_stop(node: NodeId, orders: &[PlannedOrder]) -> bool {
        orders
            .iter()
            .any(|p| p.order.customer == node || !p.picked_up && p.order.restaurant == node)
    }

    /// The anchored plan on a table extended in two steps, `orders[..split]`
    /// then the rest — as pricing extends a vehicle's committed block with an
    /// offer — from a leg source that asserts the start row is asked for
    /// first legs only (a pickup, or the customer of food on board) while the
    /// start is not a stop.
    fn plan_in_two_steps(
        start: NodeId,
        t: TimePoint,
        orders: &[PlannedOrder],
        split: usize,
        engine: &ShortestPathEngine,
    ) -> Option<EvaluatedRoute> {
        let mut table = LegTable::new(Some(start));
        for so_far in [&orders[..split], orders] {
            let start_is_stop = is_a_stop(start, so_far);
            let first_legs: Vec<NodeId> = so_far
                .iter()
                .map(|p| if p.picked_up { p.order.customer } else { p.order.restaurant })
                .collect();
            let mut legs = engine_legs(engine, t);
            table.extend(&so_far[table.orders..], |from, to, out| {
                if from == start && !start_is_stop {
                    for node in to {
                        assert!(first_legs.contains(node), "start row asked for {from} → {node}");
                    }
                }
                legs(from, to, out);
            });
        }
        plan_on_table(&table, t, orders)
    }

    /// Plans `cases` seeded instances on `engine` with both planners, both
    /// starts and a two-step table, and pins them to the brute force.
    fn pin(rng: &mut Rng, engine: &ShortestPathEngine, cases: usize, seen: &mut Coverage) {
        let t = TimePoint::from_hms(12, 30, 0);
        for case in 0..cases {
            let orders = instance(rng, t);
            let stops: Vec<NodeId> =
                orders.iter().flat_map(|p| [p.order.restaurant, p.order.customer]).collect();
            let start = if !stops.is_empty() && rng.chance(35) {
                stops[rng.below(stops.len() as u64) as usize]
            } else {
                node(rng)
            };
            let what = format!("case {case}: start {start}, {orders:?}");

            let anchored = plan_optimal_route(start, t, &orders, engine);
            let truth = plan_exhaustively(Some(start), t, &orders, engine);
            assert_same(&anchored, &truth, &what);
            let free = plan_optimal_route_free_start(t, &orders, engine);
            assert_same(&free, &plan_exhaustively(None, t, &orders, engine), &what);
            let split = rng.below(orders.len() as u64 + 1) as usize;
            let stepwise = plan_in_two_steps(start, t, &orders, split, engine);
            assert_same(&stepwise, &truth, &format!("{what}, split at {split}"));

            seen.unplannable += usize::from(anchored.is_none());
            seen.on_a_stop += usize::from(anchored.is_some() && stops.contains(&start));
            seen.on_a_later_stop +=
                usize::from(!is_a_stop(start, &orders[..split]) && is_a_stop(start, &orders));
            seen.negative += usize::from(
                [&anchored, &free].iter().any(|r| r.as_ref().is_some_and(|r| r.cost_secs < 0.0)),
            );
            // An instance where order matters: reversing the input changes
            // the plan but not its cost.
            let reversed: Vec<PlannedOrder> = orders.iter().rev().copied().collect();
            if let (Some(a), Some(b)) = (&free, plan_optimal_route_free_start(t, &reversed, engine))
            {
                seen.tied += usize::from(a.cost_secs == b.cost_secs && a.plan != b.plan);
            }
        }
    }

    #[test]
    fn planners_match_the_brute_force_on_random_instances() {
        let mut rng = Rng(0xF00D);
        let mut seen = Coverage::default();
        for _ in 0..40 {
            let engine = network(&mut rng);
            pin(&mut rng, &engine, 100, &mut seen);
        }
        // The generator must actually reach the cases it exists for.
        assert!(seen.unplannable > 100, "only {} unplannable instances", seen.unplannable);
        assert!(seen.on_a_stop > 500, "only {} plans start on a stop node", seen.on_a_stop);
        let later = seen.on_a_later_stop;
        assert!(later > 100, "only {later} starts become a stop in the second step");
        assert!(seen.tied > 50, "only {} instances decided by the first-found rule", seen.tied);
        assert!(seen.negative > 500, "only {} instances plan a negative cost", seen.negative);
    }

    #[test]
    fn planners_match_the_brute_force_under_a_traffic_overlay() {
        let mut rng = Rng(0x0E1A);
        let engine = network(&mut rng);
        // Every third street slowed: the overlay path of the oracle, and
        // tours whose legs no longer tie.
        let mut overlay = TrafficOverlay::new();
        for edge in engine.network().edge_ids().step_by(3) {
            overlay.slow_edge(edge, 2.5);
        }
        engine.set_overlay(overlay);
        pin(&mut rng, &engine, 400, &mut Coverage::default());
    }
}
