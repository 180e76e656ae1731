//! The cost model: shortest/expected/extra delivery time (Definitions 5–7)
//! and marginal costs (Definition 9, generalised to batches in Eq. 7).
//!
//! All costs are expressed in seconds of *extra delivery time* (XDT): the
//! time an order takes beyond its unavoidable minimum `SDT = o^p +
//! SP(o^r, o^c, o^t)`. Minimising total XDT is the paper's objective
//! (Problem 1); rejected orders are charged the penalty Ω instead.

use crate::config::DispatchConfig;
use crate::legs::{LegRow, LegRows};
use crate::order::Order;
use crate::route::{plan_on_table, LegTable, PlannedOrder};
use crate::vehicle::VehicleSnapshot;
use foodmatch_roadnet::{Duration, GatedTargets, NodeId, ShortestPathEngine, TimePoint};
use std::collections::BTreeMap;

/// Shortest delivery time of an order (Definition 6): preparation time plus
/// the quickest path from restaurant to customer, evaluated at `t`.
///
/// Returns `None` if the customer is unreachable from the restaurant.
pub fn shortest_delivery_time(
    order: &Order,
    engine: &ShortestPathEngine,
    t: TimePoint,
) -> Option<Duration> {
    let sp = engine.travel_time(order.restaurant, order.customer, t)?;
    Some(order.prep_time + sp)
}

/// The vehicle's committed orders followed by `extra` (all pending), in the
/// order the planner branches over them.
fn planned_orders(vehicle: &VehicleSnapshot, extra: &[Order]) -> Vec<PlannedOrder> {
    let mut planned: Vec<PlannedOrder> = vehicle
        .committed
        .iter()
        .map(|c| PlannedOrder { order: c.order, picked_up: c.picked_up })
        .collect();
    planned.extend(extra.iter().copied().map(PlannedOrder::pending));
    planned
}

/// The stops a batch of pending orders adds to a plan.
fn stops_of(batch: &[Order]) -> impl Iterator<Item = NodeId> + '_ {
    batch.iter().flat_map(|o| [o.restaurant, o.customer])
}

/// Outcome of a marginal-cost evaluation for assigning a batch of orders to a
/// vehicle.
#[derive(Clone, Debug)]
pub enum MarginalCost {
    /// The assignment is feasible; `cost_secs` is `mCost` (Definition 9 /
    /// Eq. 7). No route plan comes with it: the simulator replans every
    /// vehicle it assigns to from scratch.
    Feasible {
        /// The marginal cost in seconds of extra delivery time.
        cost_secs: f64,
    },
    /// The assignment violates a constraint (capacity, reachability, or the
    /// first-mile bound) and must be priced at Ω.
    Infeasible,
}

impl MarginalCost {
    /// The FoodGraph edge weight for this outcome: `min(mCost, Ω)` when
    /// feasible, `Ω` otherwise (the `w(o, v)` of §IV-A).
    pub fn edge_weight(&self, config: &DispatchConfig) -> f64 {
        match self {
            MarginalCost::Feasible { cost_secs } => cost_secs.min(config.rejection_penalty_secs),
            MarginalCost::Infeasible => config.rejection_penalty_secs,
        }
    }

    /// True if the assignment is feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, MarginalCost::Feasible { .. })
    }

    /// The marginal cost if feasible.
    pub fn cost_secs(&self) -> Option<f64> {
        match self {
            MarginalCost::Feasible { cost_secs } => Some(*cost_secs),
            MarginalCost::Infeasible => None,
        }
    }
}

/// Marginal cost of assigning the batch `extra` to `vehicle` (Definition 9
/// for a single order, Eq. 7 for a batch):
/// `mCost = Cost(v, O_v ∪ extra) − Cost(v, O_v)`.
///
/// The assignment is declared [`MarginalCost::Infeasible`] when it would
/// violate the `MAXO`/`MAXI` capacity of Definition 4, when any stop is
/// unreachable, or when the first mile to the batch's first pickup exceeds
/// the configured 45-minute bound (`max_first_mile`).
///
/// This is the FoodGraph's window pricing — `collect`, `resolve`, `price` —
/// over one vehicle and one offer.
pub fn marginal_cost(
    vehicle: &VehicleSnapshot,
    extra: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> MarginalCost {
    let offers = [extra];
    let shortlist = collect(vehicle, &[0], &offers, engine, t, config);
    let resolved = resolve([(vehicle, &shortlist)], &offers, engine, t, 1);
    match price(vehicle, &shortlist, &offers, &resolved, t).pop() {
        Some((_, cost_secs)) => MarginalCost::Feasible { cost_secs },
        None => MarginalCost::Infeasible,
    }
}

/// The stops a vehicle is committed to: the restaurant of every order it has
/// yet to collect, the customer of every order.
fn committed_stops(vehicle: &VehicleSnapshot) -> impl Iterator<Item = NodeId> + '_ {
    vehicle.committed.iter().flat_map(|c| {
        (!c.picked_up).then_some(c.order.restaurant).into_iter().chain([c.order.customer])
    })
}

/// The committed stops a tour can drive to first: the restaurant of every
/// order yet to be collected, the customer of every order on board.
fn committed_first_legs(vehicle: &VehicleSnapshot) -> impl Iterator<Item = NodeId> + '_ {
    vehicle
        .committed
        .iter()
        .map(|c| if c.picked_up { c.order.customer } else { c.order.restaurant })
}

/// What [`collect`] keeps of one vehicle for the rest of the window: plain
/// values, so the phases share nothing else.
pub(crate) struct Shortlist {
    /// How many offers the vehicle was given — all it was asked about, or
    /// those Alg. 2's expansion reached (each counts as one marginal-cost
    /// evaluation, whatever filter it drops out at).
    pub(crate) offered: usize,
    /// The offers still in the running, in the order they were given.
    survivors: Vec<usize>,
    /// The vehicle's own row: to every stop a tour can drive to first — a
    /// committed pending restaurant, an on-board customer, the restaurants
    /// of the offers inside the first mile — and, where the vehicle stands
    /// on a stop, to the pending customers a tour can leave it for.
    start: LegRow,
    /// `Cost(v, O_v)` in seconds.
    base_secs: f64,
    /// The [`LegTable`] `base_secs` was planned on. A loaded vehicle's
    /// tables start as clones of it; an idle vehicle's start empty, so none
    /// is kept for it.
    committed_block: Option<Box<LegTable>>,
}

impl Shortlist {
    /// The offers still in the running, in the order they were given.
    pub(crate) fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// Narrows the shortlist to `reached`, the offers the vehicle is given
    /// after all: only they are counted as offered, and only those of them
    /// still in the running stay in it. The vehicle's row keeps the stops of
    /// offers it dropped; nothing reads them.
    pub(crate) fn keep_reached(&mut self, reached: &[usize]) {
        self.offered = reached.len();
        let mut reached = reached.to_vec();
        reached.sort_unstable();
        self.survivors.retain(|offer| reached.binary_search(offer).is_ok());
    }
}

/// Phase 1 of pricing, per vehicle: which of `offered` (indices into
/// `offers`) are still in the running once the vehicle has been asked
/// everything only it can answer. An offer drops out capacity → first mile →
/// `Cost(v, O_v)`, the order pricing has always checked in:
///
/// 1. one *gated* sweep from the vehicle (`roadnet/src/index.rs`, "Gated
///    sweeps") for the legs a [`LegTable`] reads from the start: first legs
///    only, to a pickup or to food on board. Its committed pending
///    restaurants and on-board customers are required. Every offer it has
///    the capacity for is a gate of radius `max_first_mile` whose members
///    are its triggers, the offer's restaurants. A tour leaves the vehicle
///    for a pending customer only where it stands on a stop: then its
///    committed pending customers are required too (on a committed stop or
///    a survivor's stop), and an offer's customers are members of its gate
///    (on a committed stop or one of the offer's own). A gate opens exactly
///    when `min SP(v, r) ≤ max_first_mile` over the offer's restaurants —
///    the first-mile filter — and the sweep stops short of the offers that
///    fail it: the vehicle's row leaves them out, so reading one panics
///    instead of pricing on a leg nobody asked for;
/// 2. `Cost(v, O_v)`, planned once on the committed block's table (one sweep
///    per committed stop, over the committed stops only).
///
/// Nothing is swept for an offer's own stops here: most offers fail the
/// first mile, and a far-away batch's legs are one-off memo misses.
///
/// The FoodGraph asks this over every batch, *before* Alg. 2's expansion:
/// the survivors are then the batches inside the first mile, and the
/// expansion stops once it has reached all of them
/// ([`Shortlist::keep_reached`]). `marginal_cost` asks it over one offer.
pub(crate) fn collect(
    vehicle: &VehicleSnapshot,
    offered: &[usize],
    offers: &[&[Order]],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> Shortlist {
    let mut survivors: Vec<usize> = offered
        .iter()
        .copied()
        .filter(|&offer| !offers[offer].is_empty() && vehicle.can_take(offers[offer], config))
        .collect();
    // A tour leaves the vehicle for a pickup or for food on board; it leaves
    // it for a pending customer only once it has made a stop where the
    // vehicle stands. So only a vehicle on a stop is asked for customers.
    let here = vehicle.location;
    let on_committed = committed_stops(vehicle).any(|stop| stop == here);
    let on_offer = |offer: usize| stops_of(offers[offer]).any(|stop| stop == here);
    let members = survivors.iter().map(|&offer| offers[offer].len()).sum();
    let mut asked = GatedTargets::with_capacity(survivors.len(), members);
    asked.require(committed_first_legs(vehicle));
    if on_committed || survivors.iter().any(|&offer| on_offer(offer)) {
        asked.require(vehicle.committed.iter().filter(|c| !c.picked_up).map(|c| c.order.customer));
    }
    for &offer in &survivors {
        let orders = offers[offer];
        let customers = if on_committed || on_offer(offer) { orders } else { &[] };
        let restaurants = orders.iter().map(|o| o.restaurant);
        asked.gate(config.max_first_mile, restaurants, customers.iter().map(|o| o.customer));
    }
    let (start, opened) = LegRow::gated(vehicle.location, &asked, engine, t);
    // The 45-minute delivery guarantee bounds the vehicle-to-restaurant
    // distance (§V-B): pairs beyond it are priced at Ω without planning.
    let mut opened = opened.into_iter();
    survivors.retain(|_| opened.next().expect("a gate per offer"));

    let mut shortlist = Shortlist {
        offered: offered.len(),
        survivors,
        start,
        base_secs: 0.0,
        committed_block: None,
    };
    if vehicle.committed.is_empty() {
        return shortlist;
    }
    // The committed block reads, besides the vehicle's row, every committed
    // stop's legs to the others and each on-board order's SDT leg (whose
    // restaurant is no longer a stop).
    let stops: Vec<NodeId> = committed_stops(vehicle).collect();
    let mut wanted: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &stop in &stops {
        wanted.entry(stop).or_default().extend(&stops);
    }
    for c in vehicle.committed.iter().filter(|c| c.picked_up) {
        wanted.entry(c.order.restaurant).or_default().push(c.order.customer);
    }
    wanted.remove(&vehicle.location);
    let block_legs = LegRows::sweep(wanted, engine, t, 1);

    let planned = planned_orders(vehicle, &[]);
    let mut block = LegTable::new(Some(vehicle.location));
    block.extend(&planned, block_legs.legs(Some(&shortlist.start)));
    match plan_on_table(&block, t, &planned) {
        Some(route) => {
            shortlist.base_secs = route.cost_secs;
            shortlist.committed_block = Some(Box::new(block));
        }
        // A committed stop is unreachable: nothing can be priced.
        None => shortlist.survivors.clear(),
    }
    shortlist
}

/// Phase 2 of pricing, once per window: every stop → stop leg the survivors'
/// tables will read, grouped by *source* and swept once per distinct source
/// (sources in `NodeId` order, fanned over `threads` workers):
///
/// * an offer's stop → that offer's own stops, and the committed stops of
///   every loaded vehicle the offer is still in the running for;
/// * a committed stop → the stops of every offer its vehicle still has in
///   the running.
///
/// A vehicle's tables read the legs out of the node it stands on from its
/// own row, never from these: where that node is a stop, [`collect`] asked
/// the row for the stops a tour can leave it for, customers included. Only
/// survivors are resolved for. Distances are the same Dijkstra values
/// whatever the target set, so grouping changes no price — only how many
/// searches start from the same stop.
pub(crate) fn resolve<'a>(
    fleet: impl IntoIterator<Item = (&'a VehicleSnapshot, &'a Shortlist)>,
    offers: &[&[Order]],
    engine: &ShortestPathEngine,
    t: TimePoint,
    threads: usize,
) -> LegRows {
    let mut wanted: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut in_the_running = vec![false; offers.len()];
    for (vehicle, shortlist) in fleet {
        for &offer in &shortlist.survivors {
            in_the_running[offer] = true;
        }
        if vehicle.committed.is_empty() || shortlist.survivors.is_empty() {
            continue;
        }
        let committed: Vec<NodeId> = committed_stops(vehicle).collect();
        let offered: Vec<NodeId> =
            shortlist.survivors.iter().flat_map(|&offer| stops_of(offers[offer])).collect();
        for &stop in committed.iter().filter(|&&stop| stop != vehicle.location) {
            wanted.entry(stop).or_default().extend(&offered);
        }
        for &stop in &offered {
            wanted.entry(stop).or_default().extend(&committed);
        }
    }
    for (offer, _) in offers.iter().zip(in_the_running).filter(|(_, survives)| *survives) {
        for stop in stops_of(offer) {
            wanted.entry(stop).or_default().extend(stops_of(offer));
        }
    }
    LegRows::sweep(wanted, engine, t, threads)
}

/// Phase 3 of pricing, per vehicle: `(offer, mCost)` for every survivor
/// that has a plan, in the order the offers were given. One table per
/// survivor — the committed block cloned, extended from the vehicle's row
/// and the resolved rows — and one `Cost(v, O_v ∪ offer)` plan on it, of
/// which only the cost is kept. No engine in sight: every leg was asked for
/// in the first two phases.
pub(crate) fn price(
    vehicle: &VehicleSnapshot,
    shortlist: &Shortlist,
    offers: &[&[Order]],
    resolved: &LegRows,
    t: TimePoint,
) -> Vec<(usize, f64)> {
    let mut planned = planned_orders(vehicle, &[]);
    let committed = planned.len();
    let empty = LegTable::new(Some(vehicle.location));
    let block = shortlist.committed_block.as_deref().unwrap_or(&empty);
    let mut legs = resolved.legs(Some(&shortlist.start));
    shortlist
        .survivors
        .iter()
        .filter_map(|&offer| {
            let mut table = block.clone();
            planned.truncate(committed);
            planned.extend(offers[offer].iter().copied().map(PlannedOrder::pending));
            table.extend(&planned[committed..], &mut legs);
            let route = plan_on_table(&table, t, &planned)?;
            Some((offer, route.cost_secs - shortlist.base_secs))
        })
        .collect()
}

/// `marginal_cost` as it was before the leg table: point queries for the
/// first mile, then the committed set and the extended set each planned from
/// scratch by the brute-force planner. What the three pricing phases must
/// reproduce, price for price.
#[cfg(test)]
pub(crate) fn reference_marginal_cost(
    vehicle: &VehicleSnapshot,
    extra: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> MarginalCost {
    use crate::route::exhaustive::plan_exhaustively;
    if extra.is_empty() {
        return MarginalCost::Infeasible;
    }
    if !vehicle.can_take(extra, config) {
        return MarginalCost::Infeasible;
    }
    let nearest_new_pickup =
        extra.iter().filter_map(|o| engine.travel_time(vehicle.location, o.restaurant, t)).min();
    match nearest_new_pickup {
        Some(first_mile) if first_mile <= config.max_first_mile => {}
        _ => return MarginalCost::Infeasible,
    }
    let plan = |extra| {
        plan_exhaustively(Some(vehicle.location), t, &planned_orders(vehicle, extra), engine)
    };
    let Some(base) = plan(&[]).map(|r| r.cost_secs) else {
        return MarginalCost::Infeasible;
    };
    let Some(with_extra) = plan(extra) else {
        return MarginalCost::Infeasible;
    };
    MarginalCost::Feasible { cost_secs: with_extra.cost_secs - base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::OrderId;
    use crate::vehicle::{CommittedOrder, VehicleId};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, RoadClass};

    fn setup() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(6, 6).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn edge_secs() -> f64 {
        250.0 / RoadClass::Local.free_flow_speed_mps()
    }

    fn order(id: u64, r: NodeId, c: NodeId, prep_mins: f64) -> Order {
        Order::new(
            OrderId(id),
            r,
            c,
            TimePoint::from_hms(12, 0, 0),
            1,
            Duration::from_mins(prep_mins),
        )
    }

    #[test]
    fn sdt_is_prep_plus_shortest_path() {
        let (engine, b) = setup();
        let o = order(1, b.node_at(0, 0), b.node_at(0, 3), 10.0);
        let sdt = shortest_delivery_time(&o, &engine, o.placed_at).unwrap();
        assert!((sdt.as_secs_f64() - (600.0 + 3.0 * edge_secs())).abs() < 1e-6);
    }

    #[test]
    fn marginal_cost_of_first_order_matches_its_xdt() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let v = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        // Restaurant two edges away, prep (6 s) shorter than the drive ⇒
        // XDT = first mile − prep.
        let o = order(1, b.node_at(0, 2), b.node_at(3, 2), 0.1);
        let mc = marginal_cost(&v, &[o], &engine, t, &DispatchConfig::default());
        let cost = mc.cost_secs().expect("feasible");
        assert!((cost - (2.0 * edge_secs() - 6.0)).abs() < 1e-6, "got {cost}");
    }

    #[test]
    fn marginal_cost_accounts_for_existing_load() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let config = DispatchConfig::default();
        let existing = order(1, b.node_at(0, 1), b.node_at(0, 5), 0.1);
        let mut loaded = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        loaded.committed = vec![CommittedOrder { order: existing, picked_up: false }];
        let idle = VehicleSnapshot::idle(VehicleId(2), b.node_at(0, 0));

        // A second order in the opposite corner: adding it to the loaded
        // vehicle must cost at least as much as giving it to the idle twin.
        let new_order = order(2, b.node_at(5, 1), b.node_at(5, 5), 0.1);
        let loaded_mc = marginal_cost(&loaded, &[new_order], &engine, t, &config)
            .cost_secs()
            .expect("feasible");
        let idle_mc =
            marginal_cost(&idle, &[new_order], &engine, t, &config).cost_secs().expect("feasible");
        assert!(loaded_mc >= idle_mc - 1e-6, "loaded {loaded_mc} < idle {idle_mc}");
    }

    #[test]
    fn capacity_violations_are_infeasible() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let config = DispatchConfig::default();
        let mut v = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        v.committed = (0..3)
            .map(|i| CommittedOrder {
                order: order(i, b.node_at(0, 1), b.node_at(0, 2), 1.0),
                picked_up: false,
            })
            .collect();
        let extra = order(10, b.node_at(1, 1), b.node_at(2, 2), 1.0);
        let mc = marginal_cost(&v, &[extra], &engine, t, &config);
        assert!(!mc.is_feasible());
        assert_eq!(mc.edge_weight(&config), config.rejection_penalty_secs);
    }

    #[test]
    fn item_capacity_violations_are_infeasible() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let config = DispatchConfig::default();
        let mut v = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        v.committed = vec![CommittedOrder {
            order: Order::new(OrderId(1), b.node_at(0, 1), b.node_at(0, 2), t, 9, Duration::ZERO),
            picked_up: true,
        }];
        let extra = Order::new(OrderId(2), b.node_at(1, 1), b.node_at(2, 2), t, 2, Duration::ZERO);
        assert!(!marginal_cost(&v, &[extra], &engine, t, &config).is_feasible());
    }

    #[test]
    fn distant_first_mile_is_priced_at_omega() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        // Shrink the permitted first mile below the actual distance.
        let config = DispatchConfig {
            max_first_mile: Duration::from_secs_f64(edge_secs() * 1.5),
            ..Default::default()
        };
        let v = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        let o = order(1, b.node_at(5, 5), b.node_at(5, 4), 1.0);
        let mc = marginal_cost(&v, &[o], &engine, t, &config);
        assert!(!mc.is_feasible());
    }

    /// The first-mile bound is inclusive: an offer whose nearest restaurant
    /// lies exactly `max_first_mile` away is priced, one a float step beyond
    /// it is Ω — whether the vehicle's gated sweep decides it by searching
    /// (a cold engine) or from what the engine remembers (a warm one), and
    /// for a two-order batch whose other restaurant lies far outside.
    #[test]
    fn an_offer_exactly_at_the_first_mile_bound_is_feasible_and_one_a_step_beyond_is_not() {
        let (warm, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut vehicle = VehicleSnapshot::idle(VehicleId(1), b.node_at(1, 1));
        vehicle.committed = vec![CommittedOrder {
            order: order(9, b.node_at(1, 2), b.node_at(5, 5), 0.5),
            picked_up: false,
        }];
        let near = order(1, b.node_at(2, 3), b.node_at(0, 5), 1.0);
        let far = order(2, b.node_at(5, 0), b.node_at(4, 1), 1.0);
        let first_mile = warm.travel_time(vehicle.location, near.restaurant, t).unwrap();
        assert!(warm.travel_time(vehicle.location, far.restaurant, t).unwrap() > first_mile);
        let bound = first_mile.as_secs_f64();
        let a_step_short = Duration::from_secs_f64(f64::from_bits(bound.to_bits() - 1));
        for batch in [&[near][..], &[near, far]] {
            for (max_first_mile, feasible) in [(first_mile, true), (a_step_short, false)] {
                let config = DispatchConfig { max_first_mile, ..Default::default() };
                let cold = ShortestPathEngine::cached(warm.network().clone());
                for engine in [&cold, &warm, &cold] {
                    let priced = marginal_cost(&vehicle, batch, engine, t, &config);
                    assert_eq!(priced.is_feasible(), feasible, "{} orders", batch.len());
                    let want = reference_marginal_cost(&vehicle, batch, engine, t, &config);
                    assert_eq!(
                        priced.cost_secs().map(f64::to_bits),
                        want.cost_secs().map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn a_loaded_vehicle_prices_every_batch_like_the_reference() {
        // The shape the committed-stop sweep exists for: two committed
        // orders, one on board (three committed stops), offered five
        // singleton batches of which one is too far, one too big, and three
        // survive to get a leg table. Every node is distinct.
        let b = GridCityBuilder::new(8, 8);
        let t = TimePoint::from_hms(19, 30, 0);
        let at = |r, c| b.node_at(r, c);
        let mut vehicle = VehicleSnapshot::idle(VehicleId(1), at(3, 3));
        vehicle.committed = vec![
            CommittedOrder { order: order(1, at(0, 0), at(3, 5), 4.0), picked_up: true },
            CommittedOrder { order: order(2, at(4, 3), at(5, 5), 9.0), picked_up: false },
        ];
        let far = order(13, at(7, 7), at(7, 5), 6.0);
        let heavy = Order { items: 9, ..order(14, at(2, 2), at(1, 1), 6.0) };
        let offers = [
            order(10, at(2, 3), at(1, 5), 5.0),
            far,
            order(11, at(3, 2), at(5, 1), 7.0),
            heavy,
            order(12, at(4, 4), at(6, 4), 3.0),
        ];
        let batches: Vec<&[Order]> = offers.iter().map(std::slice::from_ref).collect();

        let engine = ShortestPathEngine::cached(b.build());
        let first_mile = |o: &Order| engine.travel_time(vehicle.location, o.restaurant, t).unwrap();
        let config = DispatchConfig {
            max_first_mile: Duration::from_secs_f64(first_mile(&far).as_secs_f64() - 1.0),
            ..Default::default()
        };
        assert!(offers.iter().all(|o| o.id == far.id || first_mile(o) < config.max_first_mile));
        assert!(vehicle.has_capacity(&config) && !vehicle.can_take(&[heavy], &config));

        // The three phases over one vehicle, on a cold engine.
        let cold = ShortestPathEngine::cached(b.build());
        let offered: Vec<usize> = (0..offers.len()).collect();
        let shortlist = collect(&vehicle, &offered, &batches, &cold, t, &config);
        assert_eq!(shortlist.offered, offers.len());
        let resolved = resolve([(&vehicle, &shortlist)], &batches, &cold, t, 1);
        // Three committed stops and the six stops of the three survivors.
        assert_eq!(resolved.len(), 3 + 2 * 3);
        // Pricing reads what the first two phases asked for, nothing else.
        let asked = cold.query_count();
        let mut priced = price(&vehicle, &shortlist, &batches, &resolved, t).into_iter();
        assert_eq!(cold.query_count(), asked, "the price phase called the engine");

        for (row, offer) in offers.iter().enumerate() {
            let want = reference_marginal_cost(&vehicle, &[*offer], &engine, t, &config);
            assert_eq!(want.is_feasible(), offer.id != far.id && offer.id != heavy.id);
            let MarginalCost::Feasible { cost_secs: want_secs } = want else {
                continue;
            };
            let (got_row, got_secs) = priced.next().expect("a price per survivor");
            assert_eq!(got_row, row);
            assert_eq!(got_secs.to_bits(), want_secs.to_bits(), "{}", offer.id);
        }
        assert!(priced.next().is_none(), "an offer that dropped out was priced");
    }

    /// The vehicle's row holds the legs its tables read and no others: the
    /// first legs — committed pending restaurants, on-board customers, the
    /// restaurants of the offers inside the first mile — and, of a vehicle
    /// standing on a stop, the pending customers a tour can leave it for.
    #[test]
    fn the_start_row_holds_exactly_the_legs_the_tables_read() {
        let b = GridCityBuilder::new(8, 8);
        let engine = ShortestPathEngine::cached(b.build());
        let t = TimePoint::from_hms(19, 30, 0);
        let at = |r, c| b.node_at(r, c);
        let on_board = order(1, at(0, 0), at(3, 0), 4.0);
        let pending = order(2, at(2, 1), at(0, 3), 9.0);
        let near = order(10, at(1, 2), at(2, 3), 5.0);
        let other = order(11, at(3, 2), at(1, 4), 7.0);
        let far = order(12, at(7, 7), at(7, 5), 6.0);
        let offers: [&[Order]; 3] = [&[near], &[other], &[far]];
        let every_customer = [pending.customer, near.customer, other.customer];
        let standing = [
            (at(1, 1), vec![]),            // off every stop
            (on_board.restaurant, vec![]), // no longer a stop
            (pending.restaurant, every_customer.to_vec()),
            (pending.customer, every_customer.to_vec()),
            (near.restaurant, vec![pending.customer, near.customer]),
            (near.customer, vec![pending.customer, near.customer]),
        ];
        let first_mile = |here, node| engine.travel_time(here, node, t).unwrap();
        let bound = standing.iter().map(|&(here, _)| first_mile(here, far.restaurant)).min();
        let config = DispatchConfig {
            max_first_mile: Duration::from_secs_f64(bound.unwrap().as_secs_f64() - 1.0),
            ..Default::default()
        };
        for (here, customers) in standing {
            let what = format!("vehicle at {here}");
            for o in [near, other] {
                assert!(first_mile(here, o.restaurant) < config.max_first_mile, "{what}");
            }
            let mut vehicle = VehicleSnapshot::idle(VehicleId(1), here);
            vehicle.committed = vec![
                CommittedOrder { order: on_board, picked_up: true },
                CommittedOrder { order: pending, picked_up: false },
            ];
            let cold = ShortestPathEngine::cached(b.build());
            let shortlist = collect(&vehicle, &[0, 1, 2], &offers, &cold, t, &config);
            assert_eq!(shortlist.survivors(), [0, 1], "{what}");
            let first_legs =
                [pending.restaurant, on_board.customer, near.restaurant, other.restaurant];
            let mut want: Vec<NodeId> = first_legs.into_iter().chain(customers).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(shortlist.start.stops(), want, "{what}");

            let resolved = resolve([(&vehicle, &shortlist)], &offers, &cold, t, 1);
            let priced = price(&vehicle, &shortlist, &offers, &resolved, t);
            assert_eq!(priced.len(), 2, "{what}");
            for (offer, got) in priced {
                let want = reference_marginal_cost(&vehicle, offers[offer], &engine, t, &config);
                assert_eq!(Some(got.to_bits()), want.cost_secs().map(f64::to_bits), "{what}");
            }
        }
    }

    #[test]
    fn empty_batch_is_infeasible() {
        let (engine, b) = setup();
        let v = VehicleSnapshot::idle(VehicleId(1), b.node_at(0, 0));
        let mc = marginal_cost(
            &v,
            &[],
            &engine,
            TimePoint::from_hms(12, 0, 0),
            &DispatchConfig::default(),
        );
        assert!(!mc.is_feasible());
    }

    #[test]
    fn edge_weight_caps_at_omega() {
        let config = DispatchConfig { rejection_penalty_secs: 100.0, ..Default::default() };
        let feasible = MarginalCost::Feasible { cost_secs: 250.0 };
        assert_eq!(feasible.edge_weight(&config), 100.0);
    }
}
