//! Route plans and the exhaustive quickest-route planner (Definition 3).
//!
//! A route plan is a sequence of pick-up and drop-off stops in which every
//! order's restaurant appears before its customer. Because `MAXO` is small
//! (3 at Swiggy), the paper — and this reproduction — finds the *quickest*
//! plan by enumerating all feasible permutations, and so does this
//! reproduction, reading a small pairwise distance matrix so each
//! evaluation costs a handful of shortest-path queries rather than
//! hundreds. `route::exhaustive` (tests only) is the same enumeration
//! priced by the oracle directly, and the planner is pinned to it bit for
//! bit.
//!
//! Two entry points are provided:
//!
//! * [`plan_optimal_route`] — plan for a vehicle standing at a known node
//!   (used for marginal costs, Greedy, KM, FoodMatch edges).
//! * [`plan_optimal_route_free_start`] — plan where the vehicle is assumed to
//!   start at the first pick-up of the plan itself; this is the "simulated
//!   vehicle" of the batching stage (§IV-B1).

use crate::order::{Order, OrderId};
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};
use std::collections::{BTreeMap, HashMap};

/// Whether a stop picks food up from a restaurant or drops it off at the
/// customer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopAction {
    /// Collect the order at its restaurant node.
    Pickup,
    /// Deliver the order at its customer node.
    Dropoff,
}

/// One stop of a route plan.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Stop {
    /// The order being picked up or dropped off.
    pub order: OrderId,
    /// The road-network node of the stop.
    pub node: NodeId,
    /// Pickup or drop-off.
    pub action: StopAction,
}

/// An ordered sequence of stops fulfilling a set of orders (Definition 3).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RoutePlan {
    /// The stops in visiting order.
    pub stops: Vec<Stop>,
}

impl RoutePlan {
    /// An empty plan (vehicle with nothing to do).
    pub fn empty() -> Self {
        RoutePlan { stops: Vec::new() }
    }

    /// True if the plan contains no stops.
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }

    /// The node of the first stop, if any.
    pub fn first_node(&self) -> Option<NodeId> {
        self.stops.first().map(|s| s.node)
    }

    /// The node of the first *pick-up* stop, if any — `π[1]^r` in the
    /// paper's notation, the anchor used by the sparsified FoodGraph.
    pub fn first_pickup_node(&self) -> Option<NodeId> {
        self.stops.iter().find(|s| s.action == StopAction::Pickup).map(|s| s.node)
    }

    /// Checks that the plan is structurally valid for the given orders:
    /// every not-yet-picked-up order has exactly one pickup followed (not
    /// necessarily immediately) by exactly one drop-off, every picked-up
    /// order has exactly one drop-off and no pickup, stops reference the
    /// right nodes, and no foreign orders appear.
    pub fn validate(&self, orders: &[PlannedOrder]) -> Result<(), String> {
        // BTreeMap: the final sweep below reports the *first* offending
        // order, so the map's iteration order decides which error message
        // surfaces — keep it the smallest order id, not hasher order.
        let expected: BTreeMap<OrderId, &PlannedOrder> =
            orders.iter().map(|p| (p.order.id, p)).collect();
        let mut pickup_seen: HashMap<OrderId, usize> = HashMap::new();
        let mut dropoff_seen: HashMap<OrderId, usize> = HashMap::new();

        for (idx, stop) in self.stops.iter().enumerate() {
            let Some(planned) = expected.get(&stop.order) else {
                return Err(format!("stop {idx} references unknown order {}", stop.order));
            };
            match stop.action {
                StopAction::Pickup => {
                    if planned.picked_up {
                        return Err(format!(
                            "order {} is already on board but has a pickup stop",
                            stop.order
                        ));
                    }
                    if stop.node != planned.order.restaurant {
                        return Err(format!("pickup for {} is not at its restaurant", stop.order));
                    }
                    if pickup_seen.insert(stop.order, idx).is_some() {
                        return Err(format!("order {} is picked up twice", stop.order));
                    }
                }
                StopAction::Dropoff => {
                    if stop.node != planned.order.customer {
                        return Err(format!("drop-off for {} is not at its customer", stop.order));
                    }
                    if !planned.picked_up && !pickup_seen.contains_key(&stop.order) {
                        return Err(format!(
                            "order {} is dropped off before being picked up",
                            stop.order
                        ));
                    }
                    if dropoff_seen.insert(stop.order, idx).is_some() {
                        return Err(format!("order {} is dropped off twice", stop.order));
                    }
                }
            }
        }

        for (id, planned) in expected {
            if !dropoff_seen.contains_key(&id) {
                return Err(format!("order {id} is never dropped off"));
            }
            if !planned.picked_up && !pickup_seen.contains_key(&id) {
                return Err(format!("order {id} is never picked up"));
            }
        }
        Ok(())
    }
}

/// An order together with its pickup state, as input to the route planner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedOrder {
    /// The order to plan for.
    pub order: Order,
    /// Whether the food is already on board the vehicle.
    pub picked_up: bool,
}

impl PlannedOrder {
    /// A not-yet-picked-up order.
    pub fn pending(order: Order) -> Self {
        PlannedOrder { order, picked_up: false }
    }

    /// An order already on board (only its drop-off remains).
    pub fn on_board(order: Order) -> Self {
        PlannedOrder { order, picked_up: true }
    }
}

/// Projected delivery of one order under an evaluated route plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectedDelivery {
    /// The order delivered.
    pub order: OrderId,
    /// When the plan projects the drop-off to happen.
    pub delivered_at: TimePoint,
    /// The extra delivery time (Definition 7) of the order under this plan,
    /// in seconds.
    pub xdt_secs: f64,
}

/// The quickest route plan for a set of orders together with its cost
/// break-down.
#[derive(Clone, Debug, PartialEq)]
pub struct EvaluatedRoute {
    /// The stop sequence.
    pub plan: RoutePlan,
    /// Sum of per-order extra delivery times (the `Cost(v, O)` of Eq. 4), in
    /// seconds.
    pub cost_secs: f64,
    /// Total driving time of the plan (waiting at restaurants excluded).
    pub driving_time: Duration,
    /// Total time spent waiting at restaurants for food to become ready.
    pub waiting_time: Duration,
    /// Projected delivery time and XDT of every order.
    pub deliveries: Vec<ProjectedDelivery>,
    /// Node where the plan starts (the vehicle location, or the first stop
    /// for free-start plans).
    pub start_node: NodeId,
    /// Projected completion time of the final stop.
    pub finish_at: TimePoint,
}

impl EvaluatedRoute {
    /// The node of the first pick-up stop, if any.
    pub fn first_pickup_node(&self) -> Option<NodeId> {
        self.plan.first_pickup_node()
    }
}

/// Most orders one plan may hold: the search is exhaustive (the paper's
/// `MAXO` is 3).
const MAX_PLAN_ORDERS: usize = 5;
const MAX_PLAN_STOPS: usize = 2 * MAX_PLAN_ORDERS;
/// Distinct nodes one plan can touch: every stop plus the start.
const MAX_PLAN_NODES: usize = MAX_PLAN_STOPS + 1;

/// Everything the planner needs from the oracle for one set of orders: the
/// travel times between the ≤ 11 nodes the tour can touch, and each order's
/// restaurant → customer leg for its SDT (Definition 6). Seconds, with
/// `f64::INFINITY` for "unreachable" (the engine memo's encoding).
///
/// Rows are "from", columns are "to". The start node has a row but **no
/// column**: no tour returns to where the vehicle stands, and because
/// vehicles move every window a stop → start leg would be a fresh Dijkstra
/// each time. Its row holds **first legs only** — to a pickup, or to the
/// customer of food on board — since a tour leaves the start once and a
/// pending customer is never its first stop. The one exception is a vehicle
/// standing *on* a stop node (at the restaurant or customer): start and stop
/// then intern to index 0, whose row and column are filled like any other
/// stop's.
#[derive(Clone)]
pub(crate) struct LegTable {
    nodes: [NodeId; MAX_PLAN_NODES],
    len: usize,
    /// Whether `nodes[0]` is the vehicle's position (`false` for free-start
    /// plans, where every node is a stop).
    anchored: bool,
    start_is_stop: bool,
    /// Of an anchored table, the columns a first leg can reach, and the
    /// columns its start row holds: one bit per table index.
    first_legs: u16,
    start_row: u16,
    secs: [[f64; MAX_PLAN_NODES]; MAX_PLAN_NODES],
    orders: usize,
    /// Per order: the table index of its restaurant (unset while the food is
    /// on board) and of its customer.
    pickup: [usize; MAX_PLAN_ORDERS],
    dropoff: [usize; MAX_PLAN_ORDERS],
    sdt_leg_secs: [f64; MAX_PLAN_ORDERS],
}

impl LegTable {
    /// An empty table for plans starting at `start` (`None`: free start).
    pub(crate) fn new(start: Option<NodeId>) -> Self {
        LegTable {
            nodes: [start.unwrap_or(NodeId(0)); MAX_PLAN_NODES],
            len: usize::from(start.is_some()),
            anchored: start.is_some(),
            start_is_stop: false,
            first_legs: 0,
            start_row: 0,
            secs: [[f64::INFINITY; MAX_PLAN_NODES]; MAX_PLAN_NODES],
            orders: 0,
            pickup: [0; MAX_PLAN_ORDERS],
            dropoff: [0; MAX_PLAN_ORDERS],
            sdt_leg_secs: [f64::INFINITY; MAX_PLAN_ORDERS],
        }
    }

    /// Appends `orders` to the plan and fills exactly the legs they add:
    /// `legs(from, to, out)` must write `SP(from, to[j], t)` to `out[j]`.
    /// Legs among nodes already present are kept, so a vehicle's committed
    /// block is filled once and cloned per candidate batch. While the start
    /// is not a stop its row is asked for first legs only; once a stop lands
    /// on it, the cells skipped before are asked for too.
    ///
    /// # Panics
    /// Panics if the table would hold more than five orders.
    pub(crate) fn extend(
        &mut self,
        orders: &[PlannedOrder],
        mut legs: impl FnMut(NodeId, &[NodeId], &mut [f64]),
    ) {
        assert!(
            self.orders + orders.len() <= MAX_PLAN_ORDERS,
            "exhaustive route planning is limited to {MAX_PLAN_ORDERS} orders, got {}",
            self.orders + orders.len()
        );
        let old_len = self.len;
        let old_first = self.first_column();
        for (k, planned) in (self.orders..).zip(orders) {
            if !planned.picked_up {
                self.pickup[k] = self.intern(planned.order.restaurant);
            }
            self.dropoff[k] = self.intern(planned.order.customer);
            let first_stop = if planned.picked_up { self.dropoff[k] } else { self.pickup[k] };
            self.first_legs |= 1 << first_stop;
        }
        let first = self.first_column();
        if self.anchored {
            self.fill_start_row(&mut legs);
        }
        for i in usize::from(self.anchored)..self.len {
            // Rows that predate this call already hold their old columns…
            let new_columns = if i < old_len { old_len..self.len } else { first..self.len };
            if !new_columns.is_empty() {
                let to = &self.nodes[new_columns.clone()];
                legs(self.nodes[i], to, &mut self.secs[i][new_columns]);
            }
            // …except the start column, when a new stop just landed on the
            // start node and turned index 0 into a destination.
            if i < old_len && first < old_first {
                legs(self.nodes[i], &self.nodes[..1], &mut self.secs[i][..1]);
            }
        }
        for (k, planned) in (self.orders..).zip(orders) {
            self.sdt_leg_secs[k] = if planned.picked_up {
                // The restaurant of an on-board order is not a stop.
                let mut leg = [f64::INFINITY];
                legs(planned.order.restaurant, &[planned.order.customer], &mut leg);
                leg[0]
            } else {
                self.secs[self.pickup[k]][self.dropoff[k]]
            };
        }
        self.orders += orders.len();
    }

    /// Asks for the start row's cells a tour can read and the row does not
    /// hold yet: the first legs, or every column once the start is a stop.
    fn fill_start_row(&mut self, legs: &mut impl FnMut(NodeId, &[NodeId], &mut [f64])) {
        let readable = if self.start_is_stop { (1 << self.len) - 1 } else { self.first_legs };
        let missing = readable & !self.start_row;
        if missing == 0 {
            return;
        }
        self.start_row |= missing;
        let (mut columns, mut to, mut n) = ([0; MAX_PLAN_NODES], [NodeId(0); MAX_PLAN_NODES], 0);
        for c in (0..self.len).filter(|&c| missing >> c & 1 == 1) {
            (columns[n], to[n]) = (c, self.nodes[c]);
            n += 1;
        }
        let mut out = [f64::INFINITY; MAX_PLAN_NODES];
        legs(self.nodes[0], &to[..n], &mut out[..n]);
        for (&c, secs) in columns[..n].iter().zip(out) {
            self.secs[0][c] = secs;
        }
    }

    /// Linear intern: at most 11 nodes, so a scan beats any map.
    fn intern(&mut self, node: NodeId) -> usize {
        if let Some(index) = self.nodes[..self.len].iter().position(|&n| n == node) {
            self.start_is_stop |= self.anchored && index == 0;
            return index;
        }
        self.nodes[self.len] = node;
        self.len += 1;
        self.len - 1
    }

    /// The first node that is a destination: everything but a start node no
    /// stop sits on.
    fn first_column(&self) -> usize {
        usize::from(self.anchored && !self.start_is_stop)
    }
}

/// The engine as a [`LegTable::extend`] leg source: one `(source, target)`
/// memo probe per leg, one bounded search per row for whatever misses.
pub(crate) fn engine_legs(
    engine: &ShortestPathEngine,
    t: TimePoint,
) -> impl FnMut(NodeId, &[NodeId], &mut [f64]) + '_ {
    move |from, to, out| {
        for (secs, leg) in out.iter_mut().zip(engine.travel_times_to_many(from, to, t)) {
            *secs = leg.map_or(f64::INFINITY, Duration::as_secs_f64);
        }
    }
}

/// Plans the quickest route for `orders` starting from `start` at
/// `start_time`.
///
/// Returns `None` if any required node is unreachable from the tour. With no
/// orders the result is an empty plan of zero cost.
///
/// # Panics
/// Panics if more than five orders are supplied (exhaustive search would
/// blow up; the paper's `MAXO` is 3).
pub fn plan_optimal_route(
    start: NodeId,
    start_time: TimePoint,
    orders: &[PlannedOrder],
    engine: &ShortestPathEngine,
) -> Option<EvaluatedRoute> {
    let mut table = LegTable::new(Some(start));
    table.extend(orders, engine_legs(engine, start_time));
    plan_on_table(&table, start_time, orders)
}

/// Plans the quickest route where the vehicle is assumed to already stand at
/// the first stop of the plan (zero first leg). This is the "simulated
/// vehicle" used to weigh order-graph edges during batching (§IV-B1).
pub fn plan_optimal_route_free_start(
    start_time: TimePoint,
    orders: &[PlannedOrder],
    engine: &ShortestPathEngine,
) -> Option<EvaluatedRoute> {
    let mut table = LegTable::new(None);
    table.extend(orders, engine_legs(engine, start_time));
    plan_on_table(&table, start_time, orders)
}

/// The planner proper: a depth-first search over the feasible stop
/// permutations of `orders` that reads travel times only from `table`
/// (which must have been extended with exactly these orders) and allocates
/// nothing until it returns the winner: the first strictly cheapest tour.
///
/// It enumerates every tour: no partial cost bounds the whole, because an
/// XDT can be negative (food on board that is not ready yet, an order
/// placed less than its SDT ago), so a delivery can lower the cost. A
/// cut at "partial cost ≥ best" applies only when every order's XDT bound
/// `(start_time − placed_at) − SDT` is ≥ 0; on the four benchmark
/// workloads, `fig6cde` and `fig7a` (seed 1) that holds for 0.2–1.8 % of
/// calls, and the cut would skip at most 0.001 % of the search nodes.
pub(crate) fn plan_on_table(
    table: &LegTable,
    start_time: TimePoint,
    orders: &[PlannedOrder],
) -> Option<EvaluatedRoute> {
    assert_eq!(table.orders, orders.len(), "leg table built for a different order set");
    // Shortest delivery time per order (Definition 6), needed for XDT.
    let mut sdt_secs = [0.0; MAX_PLAN_ORDERS];
    for (i, planned) in orders.iter().enumerate() {
        let leg = table.sdt_leg_secs[i];
        if leg == f64::INFINITY {
            return None;
        }
        sdt_secs[i] = planned.order.prep_time.as_secs_f64() + leg;
    }

    let unset_stop = Stop { order: OrderId(0), node: NodeId(0), action: StopAction::Pickup };
    let unset_delivery =
        ProjectedDelivery { order: OrderId(0), delivered_at: start_time, xdt_secs: 0.0 };
    let mut search = Search {
        orders,
        sdt_secs,
        table,
        states: [OrderState::Delivered; MAX_PLAN_ORDERS],
        stops: [unset_stop; MAX_PLAN_STOPS],
        deliveries: [unset_delivery; MAX_PLAN_ORDERS],
        best: None,
        best_cost: f64::INFINITY,
    };
    for (state, planned) in search.states.iter_mut().zip(orders) {
        *state = if planned.picked_up { OrderState::OnBoard } else { OrderState::NeedsPickup };
    }
    let at = TourEnd { node: table.anchored.then_some(0), now: start_time, stops: 0, delivered: 0 };
    search.explore(at, 0.0, 0.0, 0.0);

    let best = search.best?;
    let stops = best.stops[..best.at.stops].to_vec();
    Some(EvaluatedRoute {
        // A free-start plan begins at its own first stop (an orderless one
        // nowhere in particular).
        start_node: match stops.first() {
            Some(first) if !table.anchored => first.node,
            _ => table.nodes[0],
        },
        plan: RoutePlan { stops },
        cost_secs: best.cost_secs,
        driving_time: Duration::from_secs_f64(best.driving_secs),
        waiting_time: Duration::from_secs_f64(best.waiting_secs),
        deliveries: best.deliveries[..best.at.delivered].to_vec(),
        finish_at: best.at.now,
    })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum OrderState {
    NeedsPickup,
    OnBoard,
    Delivered,
}

/// Where a partial tour stands: the table index of its last stop (`None`
/// before the first stop of a free-start plan), the time it leaves it, and
/// how much of the stop / delivery stacks it occupies.
#[derive(Clone, Copy)]
struct TourEnd {
    node: Option<usize>,
    now: TimePoint,
    stops: usize,
    delivered: usize,
}

/// A complete tour, copied out of the search stacks when it becomes the
/// incumbent.
struct BestPlan {
    at: TourEnd,
    stops: [Stop; MAX_PLAN_STOPS],
    deliveries: [ProjectedDelivery; MAX_PLAN_ORDERS],
    cost_secs: f64,
    driving_secs: f64,
    waiting_secs: f64,
}

struct Search<'a> {
    orders: &'a [PlannedOrder],
    sdt_secs: [f64; MAX_PLAN_ORDERS],
    table: &'a LegTable,
    /// Backtracking state: `explore` pushes before it recurses and pops
    /// after, so one set of arrays serves the whole tree.
    states: [OrderState; MAX_PLAN_ORDERS],
    stops: [Stop; MAX_PLAN_STOPS],
    deliveries: [ProjectedDelivery; MAX_PLAN_ORDERS],
    best: Option<BestPlan>,
    best_cost: f64,
}

impl Search<'_> {
    fn explore(&mut self, at: TourEnd, cost_so_far: f64, driving_so_far: f64, waiting_so_far: f64) {
        if at.delivered == self.orders.len() {
            // `>=`, not `>`: among equal-cost tours the first one found
            // wins, which is what every downstream tie-break was recorded
            // against.
            if cost_so_far >= self.best_cost {
                return;
            }
            self.best_cost = cost_so_far;
            self.best = Some(BestPlan {
                at,
                stops: self.stops,
                deliveries: self.deliveries,
                cost_secs: cost_so_far,
                driving_secs: driving_so_far,
                waiting_secs: waiting_so_far,
            });
            return;
        }

        for i in 0..self.orders.len() {
            let order = &self.orders[i].order;
            let state = self.states[i];
            let (target, node, action) = match state {
                OrderState::NeedsPickup => {
                    (self.table.pickup[i], order.restaurant, StopAction::Pickup)
                }
                OrderState::OnBoard => (self.table.dropoff[i], order.customer, StopAction::Dropoff),
                OrderState::Delivered => continue,
            };
            let travel = match at.node {
                Some(current) => self.table.secs[current][target],
                None => 0.0,
            };
            if travel == f64::INFINITY {
                continue; // unreachable along this branch
            }
            let arrival = at.now + Duration::from_secs_f64(travel);
            self.stops[at.stops] = Stop { order: order.id, node, action };
            let mut next = TourEnd { node: Some(target), now: arrival, stops: at.stops + 1, ..at };
            let (mut next_cost, mut next_wait) = (cost_so_far, waiting_so_far);
            match action {
                StopAction::Pickup => {
                    self.states[i] = OrderState::OnBoard;
                    next.now = arrival.max(order.ready_at());
                    next_wait += next.now.saturating_since(arrival).as_secs_f64();
                }
                StopAction::Dropoff => {
                    self.states[i] = OrderState::Delivered;
                    let edt = arrival.saturating_since(order.placed_at).as_secs_f64();
                    let xdt = edt - self.sdt_secs[i];
                    next_cost += xdt;
                    self.deliveries[at.delivered] =
                        ProjectedDelivery { order: order.id, delivered_at: arrival, xdt_secs: xdt };
                    next.delivered += 1;
                }
            }
            self.explore(next, next_cost, driving_so_far + travel, next_wait);
            self.states[i] = state;
        }
    }
}

#[cfg(test)]
pub(crate) mod exhaustive;

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, RoadClass};

    /// A free-flow 5×5 grid, 250 m spacing, all local roads.
    fn grid() -> (foodmatch_roadnet::RoadNetwork, GridCityBuilder) {
        let b =
            GridCityBuilder::new(5, 5).congestion(CongestionProfile::free_flow()).major_every(0);
        (b.build(), b)
    }

    fn edge_secs() -> f64 {
        250.0 / RoadClass::Local.free_flow_speed_mps()
    }

    fn order(
        id: u64,
        restaurant: NodeId,
        customer: NodeId,
        placed_hms: (u32, u32),
        prep_mins: f64,
    ) -> Order {
        Order::new(
            OrderId(id),
            restaurant,
            customer,
            TimePoint::from_hms(placed_hms.0, placed_hms.1, 0),
            1,
            Duration::from_mins(prep_mins),
        )
    }

    #[test]
    fn empty_order_set_gives_empty_plan() {
        let (net, _) = grid();
        let engine = ShortestPathEngine::cached(net);
        let r = plan_optimal_route(NodeId(0), TimePoint::from_hms(12, 0, 0), &[], &engine).unwrap();
        assert!(r.plan.is_empty());
        assert_eq!(r.cost_secs, 0.0);
        assert_eq!(r.driving_time, Duration::ZERO);
    }

    #[test]
    fn single_order_route_is_pickup_then_dropoff() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let start = b.node_at(0, 0);
        let o = order(1, b.node_at(0, 2), b.node_at(4, 2), (12, 0), 5.0);
        let t = TimePoint::from_hms(12, 0, 0);
        let r = plan_optimal_route(start, t, &[PlannedOrder::pending(o)], &engine).unwrap();
        assert_eq!(r.plan.stops.len(), 2);
        assert_eq!(r.plan.stops[0].action, StopAction::Pickup);
        assert_eq!(r.plan.stops[1].action, StopAction::Dropoff);
        assert_eq!(r.first_pickup_node(), Some(o.restaurant));
        r.plan.validate(&[PlannedOrder::pending(o)]).unwrap();
        // First mile = 2 edges, prep 5 min = 300 s > first mile, last mile = 4 edges.
        let first_mile = 2.0 * edge_secs();
        let last_mile = 4.0 * edge_secs();
        let expected_edt = first_mile.max(300.0) + last_mile;
        let expected_xdt = expected_edt - (300.0 + last_mile);
        assert!(
            (r.cost_secs - expected_xdt).abs() < 1e-6,
            "cost {} vs {}",
            r.cost_secs,
            expected_xdt
        );
        assert!((r.waiting_time.as_secs_f64() - (300.0 - first_mile)).abs() < 1e-6);
    }

    #[test]
    fn waiting_disappears_when_prep_is_short() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let start = b.node_at(0, 0);
        let o = order(1, b.node_at(0, 4), b.node_at(4, 4), (12, 0), 0.5);
        let t = TimePoint::from_hms(12, 0, 0);
        let r = plan_optimal_route(start, t, &[PlannedOrder::pending(o)], &engine).unwrap();
        assert_eq!(r.waiting_time, Duration::ZERO);
        // Prep finished before the vehicle arrived, so XDT = first mile − prep
        // (EDT = first + last, SDT = prep + last).
        assert!((r.cost_secs - (4.0 * edge_secs() - 30.0)).abs() < 1e-6);
    }

    #[test]
    fn on_board_order_only_needs_dropoff() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let start = b.node_at(2, 2);
        let o = order(1, b.node_at(0, 0), b.node_at(4, 4), (11, 30), 10.0);
        let r = plan_optimal_route(
            start,
            TimePoint::from_hms(12, 0, 0),
            &[PlannedOrder::on_board(o)],
            &engine,
        )
        .unwrap();
        assert_eq!(r.plan.stops.len(), 1);
        assert_eq!(r.plan.stops[0].action, StopAction::Dropoff);
        r.plan.validate(&[PlannedOrder::on_board(o)]).unwrap();
    }

    #[test]
    fn two_orders_prefer_the_cheaper_interleaving() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        // Both restaurants near the start, customers on the far side: the
        // optimal plan picks up both before dropping off either.
        let o1 = order(1, b.node_at(0, 1), b.node_at(4, 3), (12, 0), 1.0);
        let o2 = order(2, b.node_at(0, 2), b.node_at(4, 4), (12, 0), 1.0);
        let start = b.node_at(0, 0);
        let t = TimePoint::from_hms(12, 5, 0);
        let orders = [PlannedOrder::pending(o1), PlannedOrder::pending(o2)];
        let r = plan_optimal_route(start, t, &orders, &engine).unwrap();
        r.plan.validate(&orders).unwrap();
        let pickups_first = r.plan.stops[0].action == StopAction::Pickup
            && r.plan.stops[1].action == StopAction::Pickup;
        assert!(pickups_first, "expected both pickups before any drop-off: {:?}", r.plan.stops);
    }

    #[test]
    fn optimal_route_beats_naive_sequential_plan() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let start = b.node_at(2, 0);
        let o1 = order(1, b.node_at(0, 2), b.node_at(0, 4), (12, 0), 2.0);
        let o2 = order(2, b.node_at(4, 2), b.node_at(4, 4), (12, 0), 2.0);
        let o3 = order(3, b.node_at(2, 2), b.node_at(2, 4), (12, 0), 2.0);
        let t = TimePoint::from_hms(12, 0, 0);
        let orders =
            [PlannedOrder::pending(o1), PlannedOrder::pending(o2), PlannedOrder::pending(o3)];
        let best = plan_optimal_route(start, t, &orders, &engine).unwrap();
        best.plan.validate(&orders).unwrap();

        // Hand-rolled "serve orders one at a time in id order" plan cost.
        let mut naive_cost = 0.0;
        let mut now = t;
        let mut loc = start;
        for planned in &orders {
            let o = planned.order;
            let to_rest = engine.travel_time(loc, o.restaurant, t).unwrap();
            let arrive = now + to_rest;
            let depart = arrive.max(o.ready_at());
            let to_cust = engine.travel_time(o.restaurant, o.customer, t).unwrap();
            let delivered = depart + to_cust;
            let sdt = o.prep_time.as_secs_f64() + to_cust.as_secs_f64();
            naive_cost += delivered.saturating_since(o.placed_at).as_secs_f64() - sdt;
            now = delivered;
            loc = o.customer;
        }
        assert!(
            best.cost_secs <= naive_cost + 1e-6,
            "optimal {} > naive {naive_cost}",
            best.cost_secs
        );
    }

    #[test]
    fn free_start_plan_starts_at_a_restaurant() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let o1 = order(1, b.node_at(1, 1), b.node_at(3, 3), (12, 0), 3.0);
        let o2 = order(2, b.node_at(1, 2), b.node_at(3, 4), (12, 0), 3.0);
        let orders = [PlannedOrder::pending(o1), PlannedOrder::pending(o2)];
        let r =
            plan_optimal_route_free_start(TimePoint::from_hms(12, 0, 0), &orders, &engine).unwrap();
        r.plan.validate(&orders).unwrap();
        assert_eq!(r.start_node, r.plan.first_node().unwrap());
        assert_eq!(r.plan.stops[0].action, StopAction::Pickup);
    }

    #[test]
    fn single_order_free_start_has_zero_cost() {
        // A lone order with a simulated vehicle parked at its restaurant
        // achieves exactly the shortest delivery time, so XDT = 0 — this is
        // what makes the initial AvgCost of the order graph zero.
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let o = order(1, b.node_at(2, 2), b.node_at(0, 0), (12, 0), 6.0);
        let r = plan_optimal_route_free_start(
            TimePoint::from_hms(12, 0, 0),
            &[PlannedOrder::pending(o)],
            &engine,
        )
        .unwrap();
        assert!(r.cost_secs.abs() < 1e-6, "expected zero XDT, got {}", r.cost_secs);
    }

    #[test]
    fn vehicle_standing_on_a_stop_shares_its_table_index() {
        // Regression: a vehicle parked at a restaurant (or a customer) makes
        // the start node a destination too — other stops lead back to it —
        // so start and stop must intern to one index *with* a column.
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let t = TimePoint::from_hms(12, 0, 0);
        let here = b.node_at(2, 2);
        // o1 is collected where the vehicle stands; o2 (on board) is dropped
        // at o1's restaurant, i.e. also right here, but only after a detour
        // would be pointless — so the quickest tour starts with both.
        let o1 = order(1, here, b.node_at(4, 4), (11, 50), 0.0);
        let o2 = order(2, b.node_at(0, 0), here, (11, 40), 0.0);
        let o3 = order(3, b.node_at(2, 4), here, (11, 55), 0.0);
        let orders =
            [PlannedOrder::pending(o1), PlannedOrder::on_board(o2), PlannedOrder::pending(o3)];

        let mut table = LegTable::new(Some(here));
        table.extend(&orders, engine_legs(&engine, t));
        assert_eq!(table.len, 3, "start, o1's restaurant and two customers are one node");
        assert_eq!(table.first_column(), 0);
        for row in 0..table.len {
            assert!(table.secs[row][0].is_finite(), "leg {row} → start/stop node missing");
        }

        let route = plan_optimal_route(here, t, &orders, &engine).unwrap();
        route.plan.validate(&orders).unwrap();
        assert_eq!(route, exhaustive::plan_exhaustively(Some(here), t, &orders, &engine).unwrap());
        // o3 must be fetched and brought back: the tour returns to its start.
        assert_eq!(route.plan.stops.last().unwrap().node, here);
        assert_eq!(route.deliveries[0].delivered_at, t, "o2 is delivered without moving");
    }

    #[test]
    fn a_later_stop_on_the_start_node_backfills_the_start_column() {
        // The FoodGraph fills a vehicle's committed block once, then extends
        // a clone per batch. A batch whose restaurant is where the vehicle
        // stands turns index 0 into a destination *after* the committed rows
        // were filled; they must get that column too.
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let t = TimePoint::from_hms(12, 0, 0);
        let here = b.node_at(1, 1);
        let committed =
            [PlannedOrder::pending(order(1, b.node_at(0, 3), b.node_at(3, 3), (12, 0), 2.0))];
        let offered = [PlannedOrder::pending(order(2, here, b.node_at(4, 0), (12, 0), 2.0))];
        let both = [committed[0], offered[0]];

        let mut stepwise = LegTable::new(Some(here));
        stepwise.extend(&committed, engine_legs(&engine, t));
        assert_eq!(stepwise.first_column(), 1, "no stop on the start yet: no start column");
        assert!(stepwise.secs[1][0].is_infinite());
        stepwise.extend(&offered, engine_legs(&engine, t));
        let mut at_once = LegTable::new(Some(here));
        at_once.extend(&both, engine_legs(&engine, t));

        assert_eq!(stepwise.first_column(), 0);
        assert_eq!(stepwise.nodes[..stepwise.len], at_once.nodes[..at_once.len]);
        assert_eq!(stepwise.secs, at_once.secs);
        assert_eq!(stepwise.sdt_leg_secs, at_once.sdt_leg_secs);
        assert_eq!(
            plan_on_table(&stepwise, t, &both),
            exhaustive::plan_exhaustively(Some(here), t, &both, &engine)
        );
    }

    #[test]
    fn a_negative_xdt_still_to_come_keeps_the_search_going() {
        // A delivery can lower the cost. Order `a` is on board and its food
        // is not ready yet, so dropping it now has an XDT of −202 s. The
        // first tours found drop `a` at once, and the best of them costs
        // −52 s. Cutting every partial tour whose cost reaches that would cut
        // each one that starts with a pickup (cost 0 so far), but fetching
        // `b` first and dropping both at the shared door costs −102 s.
        let grid = GridCityBuilder::new(2, 4)
            .spacing_m(345.0) // 50 s a block
            .congestion(CongestionProfile::free_flow())
            .major_every(0);
        let engine = ShortestPathEngine::cached(grid.build());
        let t = TimePoint::from_hms(12, 30, 0);
        let door = grid.node_at(0, 0);
        let order = |id, restaurant, customer, secs_ago, prep_mins| {
            let placed_at = t - Duration::from_secs_f64(secs_ago);
            Order::new(
                OrderId(id),
                restaurant,
                customer,
                placed_at,
                1,
                Duration::from_mins(prep_mins),
            )
        };
        let a = order(1, grid.node_at(1, 0), door, 568.0, 12.0);
        let b = order(2, grid.node_at(0, 1), door, 300.0, 5.0);
        let c = order(3, door, grid.node_at(0, 3), 240.0, 4.0);
        assert!(a.ready_at() > t, "a's food is not ready yet");
        let orders =
            [PlannedOrder::on_board(a), PlannedOrder::pending(b), PlannedOrder::pending(c)];

        let route = plan_optimal_route_free_start(t, &orders, &engine).unwrap();
        assert!((route.cost_secs + 102.0).abs() < 1e-6, "cost {}", route.cost_secs);
        let first = route.plan.stops[0];
        assert_eq!((first.order, first.action), (b.id, StopAction::Pickup));
        assert_eq!(Some(route), exhaustive::plan_exhaustively(None, t, &orders, &engine));
    }

    #[test]
    fn unreachable_customer_returns_none() {
        use foodmatch_roadnet::{GeoPoint, RoadNetworkBuilder};
        let mut builder = RoadNetworkBuilder::new();
        let a = builder.add_node(GeoPoint::new(0.0, 0.0));
        let bnode = builder.add_node(GeoPoint::new(0.0, 0.01));
        let island = builder.add_node(GeoPoint::new(1.0, 1.0));
        builder.add_bidirectional(a, bnode, 500.0, RoadClass::Local);
        let net = builder.build();
        let engine = ShortestPathEngine::cached(net);
        let o = Order::new(OrderId(1), bnode, island, TimePoint::MIDNIGHT, 1, Duration::ZERO);
        assert!(plan_optimal_route(a, TimePoint::MIDNIGHT, &[PlannedOrder::pending(o)], &engine)
            .is_none());
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        let o = order(1, NodeId(1), NodeId(2), (12, 0), 5.0);
        let planned = [PlannedOrder::pending(o)];
        // Drop-off before pickup.
        let bad = RoutePlan {
            stops: vec![
                Stop { order: o.id, node: o.customer, action: StopAction::Dropoff },
                Stop { order: o.id, node: o.restaurant, action: StopAction::Pickup },
            ],
        };
        assert!(bad.validate(&planned).is_err());
        // Missing drop-off.
        let incomplete = RoutePlan {
            stops: vec![Stop { order: o.id, node: o.restaurant, action: StopAction::Pickup }],
        };
        assert!(incomplete.validate(&planned).is_err());
        // Unknown order.
        let foreign = RoutePlan {
            stops: vec![Stop { order: OrderId(99), node: NodeId(1), action: StopAction::Pickup }],
        };
        assert!(foreign.validate(&planned).is_err());
    }

    #[test]
    #[should_panic(expected = "limited to 5 orders")]
    fn too_many_orders_panics() {
        let (net, b) = grid();
        let engine = ShortestPathEngine::cached(net);
        let orders: Vec<PlannedOrder> = (0..6)
            .map(|i| {
                PlannedOrder::pending(order(i, b.node_at(0, 0), b.node_at(1, 1), (12, 0), 1.0))
            })
            .collect();
        let _ =
            plan_optimal_route(b.node_at(2, 2), TimePoint::from_hms(12, 0, 0), &orders, &engine);
    }
}
