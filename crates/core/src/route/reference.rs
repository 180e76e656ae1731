//! The enumerating planner this crate shipped before the table-reading core
//! replaced it, kept verbatim as the reference the new core is pinned to:
//! same plan, same `cost_secs` bits, same deliveries, same `finish_at`, same
//! `None`-ness on seeded random instances (see `pinned_to_reference` below).
//!
//! It fills a full n×n matrix (start column included) with one
//! `travel_times_to_many` per node and clones its state on every branch; the
//! branch order and the strict `>=` bound are what the core must reproduce.

use super::*;
use std::collections::HashMap;

pub(crate) fn plan_route_inner(
    start: Option<NodeId>,
    start_time: TimePoint,
    orders: &[PlannedOrder],
    engine: &ShortestPathEngine,
) -> Option<EvaluatedRoute> {
    assert!(
        orders.len() <= 5,
        "exhaustive route planning is limited to 5 orders, got {}",
        orders.len()
    );

    if orders.is_empty() {
        let node = start.unwrap_or(NodeId(0));
        return Some(EvaluatedRoute {
            plan: RoutePlan::empty(),
            cost_secs: 0.0,
            driving_time: Duration::ZERO,
            waiting_time: Duration::ZERO,
            deliveries: Vec::new(),
            start_node: node,
            finish_at: start_time,
        });
    }

    // Gather the distinct nodes the tour can touch and build a small
    // travel-time matrix over them with one one-to-many query per node.
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut index_of = HashMap::new();
    let intern = |node: NodeId, nodes: &mut Vec<NodeId>, index_of: &mut HashMap<NodeId, usize>| {
        *index_of.entry(node).or_insert_with(|| {
            nodes.push(node);
            nodes.len() - 1
        })
    };
    if let Some(s) = start {
        intern(s, &mut nodes, &mut index_of);
    }
    for planned in orders {
        if !planned.picked_up {
            intern(planned.order.restaurant, &mut nodes, &mut index_of);
        }
        intern(planned.order.customer, &mut nodes, &mut index_of);
    }

    let mut matrix = vec![vec![None; nodes.len()]; nodes.len()];
    for (i, &from) in nodes.iter().enumerate() {
        let row = engine.travel_times_to_many(from, &nodes, start_time);
        for (j, d) in row.into_iter().enumerate() {
            matrix[i][j] = d.map(|d| d.as_secs_f64());
        }
    }

    // Shortest delivery time per order (Definition 6), needed for XDT.
    let mut sdt_secs = Vec::with_capacity(orders.len());
    for planned in orders {
        let sp = engine
            .travel_time(planned.order.restaurant, planned.order.customer, start_time)?
            .as_secs_f64();
        sdt_secs.push(planned.order.prep_time.as_secs_f64() + sp);
    }

    let mut search = Search {
        orders,
        sdt_secs: &sdt_secs,
        matrix: &matrix,
        index_of: &index_of,
        best: None,
        best_cost: f64::INFINITY,
    };
    let initial_state: Vec<OrderState> = orders
        .iter()
        .map(|p| if p.picked_up { OrderState::OnBoard } else { OrderState::NeedsPickup })
        .collect();
    let start_idx = start.map(|s| index_of[&s]);
    search.explore(start_idx, start_time, initial_state, Vec::new(), 0.0, 0.0, 0.0, Vec::new());

    let best = search.best?;
    let start_node = start.unwrap_or_else(|| best.plan.first_node().expect("non-empty plan"));
    Some(EvaluatedRoute { start_node, ..best })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OrderState {
    NeedsPickup,
    OnBoard,
    Delivered,
}

struct Search<'a> {
    orders: &'a [PlannedOrder],
    sdt_secs: &'a [f64],
    matrix: &'a [Vec<Option<f64>>],
    index_of: &'a HashMap<NodeId, usize>,
    best: Option<EvaluatedRoute>,
    best_cost: f64,
}

impl Search<'_> {
    #[allow(clippy::too_many_arguments)] // the pre-table planner as it was: the reference
    fn explore(
        &mut self,
        current: Option<usize>,
        now: TimePoint,
        states: Vec<OrderState>,
        stops: Vec<Stop>,
        cost_so_far: f64,
        driving_so_far: f64,
        waiting_so_far: f64,
        deliveries: Vec<ProjectedDelivery>,
    ) {
        // Branch-and-bound: accumulated XDT only grows as more orders are
        // delivered, so any partial cost at or above the best is hopeless.
        if cost_so_far >= self.best_cost {
            return;
        }
        if states.iter().all(|s| *s == OrderState::Delivered) {
            self.best_cost = cost_so_far;
            self.best = Some(EvaluatedRoute {
                plan: RoutePlan { stops },
                cost_secs: cost_so_far,
                driving_time: Duration::from_secs_f64(driving_so_far),
                waiting_time: Duration::from_secs_f64(waiting_so_far),
                deliveries,
                start_node: NodeId(0), // overwritten by the caller
                finish_at: now,
            });
            return;
        }

        for (i, state) in states.iter().enumerate() {
            let planned = &self.orders[i];
            let (target, action) = match state {
                OrderState::NeedsPickup => (planned.order.restaurant, StopAction::Pickup),
                OrderState::OnBoard => (planned.order.customer, StopAction::Dropoff),
                OrderState::Delivered => continue,
            };
            let target_idx = self.index_of[&target];
            let travel = match current {
                Some(cur) => match self.matrix[cur][target_idx] {
                    Some(t) => t,
                    None => continue, // unreachable along this branch
                },
                None => 0.0,
            };
            let arrival = now + Duration::from_secs_f64(travel);

            let mut next_states = states.clone();
            let mut next_stops = stops.clone();
            next_stops.push(Stop { order: planned.order.id, node: target, action });
            let mut next_deliveries = deliveries.clone();
            let mut next_cost = cost_so_far;
            let mut next_wait = waiting_so_far;
            let next_now;
            match action {
                StopAction::Pickup => {
                    next_states[i] = OrderState::OnBoard;
                    let ready = planned.order.ready_at();
                    let depart = arrival.max(ready);
                    next_wait += depart.saturating_since(arrival).as_secs_f64();
                    next_now = depart;
                }
                StopAction::Dropoff => {
                    next_states[i] = OrderState::Delivered;
                    let edt = arrival.saturating_since(planned.order.placed_at).as_secs_f64();
                    let xdt = edt - self.sdt_secs[i];
                    next_cost += xdt;
                    next_deliveries.push(ProjectedDelivery {
                        order: planned.order.id,
                        delivered_at: arrival,
                        xdt_secs: xdt,
                    });
                    next_now = arrival;
                }
            }
            self.explore(
                Some(target_idx),
                next_now,
                next_states,
                next_stops,
                next_cost,
                driving_so_far + travel,
                next_wait,
                next_deliveries,
            );
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

mod pinned_to_reference {
    use super::*;
    use foodmatch_roadnet::{GeoPoint, RoadClass, RoadNetworkBuilder};

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

    fn assert_same(new: &Option<EvaluatedRoute>, old: &Option<EvaluatedRoute>, what: &str) {
        assert_eq!(new, old, "{what}");
        if let (Some(new), Some(old)) = (new, old) {
            assert_eq!(new.cost_secs.to_bits(), old.cost_secs.to_bits(), "{what}");
            for (n, o) in new.deliveries.iter().zip(&old.deliveries) {
                assert_eq!(n.xdt_secs.to_bits(), o.xdt_secs.to_bits(), "{what}");
            }
        }
    }

    #[test]
    fn core_matches_the_enumerating_planner_on_random_instances() {
        let mut rng = Rng(0xF00D);
        let t = TimePoint::from_hms(12, 30, 0);
        let (mut unplannable, mut on_a_stop, mut tied) = (0, 0, 0);
        for round in 0..40 {
            let engine = network(&mut rng);
            for case in 0..100 {
                let orders = instance(&mut rng, t);
                let stops: Vec<NodeId> =
                    orders.iter().flat_map(|p| [p.order.restaurant, p.order.customer]).collect();
                let start = if !stops.is_empty() && rng.chance(35) {
                    stops[rng.below(stops.len() as u64) as usize]
                } else {
                    node(&mut rng)
                };
                let what = format!("round {round} case {case}: start {start}, {orders:?}");

                let anchored = plan_optimal_route(start, t, &orders, &engine);
                assert_same(&anchored, &plan_route_inner(Some(start), t, &orders, &engine), &what);
                let free = plan_optimal_route_free_start(t, &orders, &engine);
                assert_same(&free, &plan_route_inner(None, t, &orders, &engine), &what);

                unplannable += usize::from(anchored.is_none());
                on_a_stop += usize::from(anchored.is_some() && stops.contains(&start));
                // An instance where order matters: reversing the input
                // changes the plan but not its cost.
                let reversed: Vec<PlannedOrder> = orders.iter().rev().copied().collect();
                if let (Some(a), Some(b)) = (&free, plan_route_inner(None, t, &reversed, &engine)) {
                    tied += usize::from(a.cost_secs == b.cost_secs && a.plan != b.plan);
                }
            }
        }
        // The generator must actually reach the cases it exists for.
        assert!(unplannable > 100, "only {unplannable} unplannable instances");
        assert!(on_a_stop > 500, "only {on_a_stop} plans start on a stop node");
        assert!(tied > 50, "only {tied} instances are decided by the first-found rule");
    }
}
