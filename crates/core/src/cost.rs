//! The cost model: shortest/expected/extra delivery time (Definitions 5–7)
//! and marginal costs (Definition 9, generalised to batches in Eq. 7).
//!
//! All costs are expressed in seconds of *extra delivery time* (XDT): the
//! time an order takes beyond its unavoidable minimum `SDT = o^p +
//! SP(o^r, o^c, o^t)`. Minimising total XDT is the paper's objective
//! (Problem 1); rejected orders are charged the penalty Ω instead.

use crate::config::DispatchConfig;
use crate::order::Order;
use crate::route::{
    engine_legs, plan_on_table, plan_optimal_route, EvaluatedRoute, LegTable, PlannedOrder,
};
use crate::vehicle::VehicleSnapshot;
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};

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
    offer(&mut planned, vehicle.committed.len(), extra);
    planned
}

/// Replaces whatever follows the first `committed` entries of `planned` with
/// the orders of `extra`, all pending.
fn offer(planned: &mut Vec<PlannedOrder>, committed: usize, extra: &[Order]) {
    planned.truncate(committed);
    planned.extend(extra.iter().copied().map(PlannedOrder::pending));
}

/// The stops a batch of pending orders adds to a plan.
fn stops_of(batch: &[Order]) -> impl Iterator<Item = NodeId> + '_ {
    batch.iter().flat_map(|o| [o.restaurant, o.customer])
}

/// The quickest route plan (and its XDT cost) for a vehicle serving its
/// committed orders plus `extra`, starting from its snapped location at `t`.
///
/// Returns `None` when some stop is unreachable. Capacity constraints are
/// *not* checked here — see [`marginal_cost`].
pub fn vehicle_plan(
    vehicle: &VehicleSnapshot,
    extra: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
) -> Option<EvaluatedRoute> {
    plan_optimal_route(vehicle.location, t, &planned_orders(vehicle, extra), engine)
}

/// `Cost(v, O_v)` (Eq. 4): the total XDT of the vehicle's committed orders
/// under its quickest route plan, in seconds. Zero when the vehicle is idle.
pub fn vehicle_cost(
    vehicle: &VehicleSnapshot,
    engine: &ShortestPathEngine,
    t: TimePoint,
) -> Option<f64> {
    vehicle_plan(vehicle, &[], engine, t).map(|r| r.cost_secs)
}

/// Outcome of a marginal-cost evaluation for assigning a batch of orders to a
/// vehicle.
#[derive(Clone, Debug)]
pub enum MarginalCost {
    /// The assignment is feasible; `cost_secs` is `mCost` (Definition 9 /
    /// Eq. 7) and `route` is the vehicle's new quickest route plan.
    Feasible {
        /// The marginal cost in seconds of extra delivery time.
        cost_secs: f64,
        /// The quickest route plan serving committed plus new orders.
        route: EvaluatedRoute,
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
            MarginalCost::Feasible { cost_secs, .. } => {
                cost_secs.min(config.rejection_penalty_secs)
            }
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
            MarginalCost::Feasible { cost_secs, .. } => Some(*cost_secs),
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
pub fn marginal_cost(
    vehicle: &VehicleSnapshot,
    extra: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> MarginalCost {
    marginal_costs(vehicle, &[extra], engine, t, config).pop().expect("one price per batch")
}

/// Travel times from one node to a set of stops, from a single one-to-many
/// sweep: one bounded search for all memo misses, where asking stop by stop
/// (or batch by batch) would run one search each.
struct SweptRow {
    from: NodeId,
    /// Sorted and distinct, so a lookup is a binary search.
    stops: Vec<NodeId>,
    secs: Vec<f64>,
}

impl SweptRow {
    fn sweep(
        from: NodeId,
        mut stops: Vec<NodeId>,
        engine: &ShortestPathEngine,
        t: TimePoint,
    ) -> Self {
        stops.sort_unstable();
        stops.dedup();
        let mut secs = vec![f64::INFINITY; stops.len()];
        engine_legs(engine, t)(from, &stops, &mut secs);
        SweptRow { from, stops, secs }
    }

    fn secs_to(&self, stop: NodeId) -> f64 {
        self.secs[self.stops.binary_search(&stop).expect("every priced stop was swept")]
    }
}

/// A [`LegTable::extend`] leg source that reads the legs out of a swept node
/// from its row and asks the engine for every other.
fn swept_or_engine_legs<'a>(
    rows: &'a [SweptRow],
    engine: &'a ShortestPathEngine,
    t: TimePoint,
) -> impl FnMut(NodeId, &[NodeId], &mut [f64]) + 'a {
    let mut from_engine = engine_legs(engine, t);
    move |from, to, out| match rows.iter().find(|row| row.from == from) {
        Some(row) => to.iter().zip(out).for_each(|(&stop, secs)| *secs = row.secs_to(stop)),
        None => from_engine(from, to, out),
    }
}

/// [`marginal_cost`] of every batch in `extras` for one vehicle, in four
/// steps so that the oracle is asked once per source, not once per batch:
///
/// 1. one sweep from the vehicle to the stops of its committed orders and of
///    every batch it has the capacity for, which settles the first mile;
/// 2. `Cost(v, O_v)`, planned once on the committed block's [`LegTable`];
/// 3. one sweep from each committed stop to the stops of the batches still
///    in the running, and one table per such batch — the committed block
///    cloned, the vehicle's and the committed stops' rows read from the
///    sweeps, the batch's own rows from the engine's `(source, target)` memo;
/// 4. pricing: one `Cost(v, O_v ∪ batch)` plan per table, reading nothing
///    else.
///
/// A batch drops out capacity → first mile → base → with-extra, the order a
/// lone [`marginal_cost`] call has always checked in.
pub(crate) fn marginal_costs(
    vehicle: &VehicleSnapshot,
    extras: &[&[Order]],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> Vec<MarginalCost> {
    let mut planned = planned_orders(vehicle, &[]);
    let committed = planned.len();
    let takeable = |extra: &[Order]| !extra.is_empty() && vehicle.can_take(extra, config);

    let mut committed_stops: Vec<NodeId> = planned
        .iter()
        .flat_map(|p| {
            (!p.picked_up).then_some(p.order.restaurant).into_iter().chain([p.order.customer])
        })
        .collect();
    let offered_stops =
        extras.iter().filter(|extra| takeable(extra)).flat_map(|extra| stops_of(extra));
    let mut rows = vec![SweptRow::sweep(
        vehicle.location,
        committed_stops.iter().copied().chain(offered_stops).collect(),
        engine,
        t,
    )];
    // The 45-minute delivery guarantee bounds the vehicle-to-restaurant
    // distance (§V-B): pairs beyond it are priced at Ω without planning.
    let start_row = &rows[0];
    let within_first_mile = |extra: &[Order]| {
        let nearest_new_pickup =
            extra.iter().map(|o| start_row.secs_to(o.restaurant)).fold(f64::INFINITY, f64::min);
        nearest_new_pickup <= config.max_first_mile.as_secs_f64()
    };
    let in_the_running: Vec<bool> =
        extras.iter().map(|extra| takeable(extra) && within_first_mile(extra)).collect();

    let mut base_table = LegTable::new(Some(vehicle.location));
    base_table.extend(&planned, swept_or_engine_legs(&rows, engine, t));
    let Some(base) = plan_on_table(&base_table, t, &planned).map(|route| route.cost_secs) else {
        return vec![MarginalCost::Infeasible; extras.len()];
    };

    // Every surviving batch's table is about to ask every committed stop
    // for the legs to that batch's stops: asked together they cost one
    // bounded search per committed stop, not one per (stop, batch). Only
    // survivors are swept for — a far-away batch's legs are one-off memo
    // misses, which is why it drops out *before* any table is built.
    let survivor_stops = || {
        let survivors = extras.iter().zip(&in_the_running).filter(|(_, &survives)| survives);
        survivors.flat_map(|(extra, _)| stops_of(extra)).collect()
    };
    committed_stops.sort_unstable();
    committed_stops.dedup();
    rows.extend(
        committed_stops
            .into_iter()
            .filter(|&stop| stop != vehicle.location)
            .map(|stop| SweptRow::sweep(stop, survivor_stops(), engine, t)),
    );

    let mut legs = swept_or_engine_legs(&rows, engine, t);
    let tables: Vec<Option<LegTable>> = extras
        .iter()
        .zip(&in_the_running)
        .map(|(extra, &survives)| {
            survives.then(|| {
                let mut table = base_table.clone();
                offer(&mut planned, committed, extra);
                table.extend(&planned[committed..], &mut legs);
                table
            })
        })
        .collect();

    extras
        .iter()
        .zip(&tables)
        .map(|(extra, table)| {
            let Some(table) = table else { return MarginalCost::Infeasible };
            offer(&mut planned, committed, extra);
            match plan_on_table(table, t, &planned) {
                Some(route) => MarginalCost::Feasible { cost_secs: route.cost_secs - base, route },
                None => MarginalCost::Infeasible,
            }
        })
        .collect()
}

/// `marginal_cost` as it was before the leg table: point queries for the
/// first mile, then the committed set and the extended set each planned from
/// scratch by the enumerating reference planner. What [`marginal_costs`] must
/// reproduce, price for price.
#[cfg(test)]
pub(crate) fn reference_marginal_cost(
    vehicle: &VehicleSnapshot,
    extra: &[Order],
    engine: &ShortestPathEngine,
    t: TimePoint,
    config: &DispatchConfig,
) -> MarginalCost {
    use crate::route::reference::plan_route_inner;
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
        plan_route_inner(Some(vehicle.location), t, &planned_orders(vehicle, extra), engine)
    };
    let Some(base) = plan(&[]).map(|r| r.cost_secs) else {
        return MarginalCost::Infeasible;
    };
    let Some(with_extra) = plan(extra) else {
        return MarginalCost::Infeasible;
    };
    MarginalCost::Feasible { cost_secs: with_extra.cost_secs - base, route: with_extra }
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
    fn idle_vehicle_has_zero_cost() {
        let (engine, b) = setup();
        let v = VehicleSnapshot::idle(VehicleId(1), b.node_at(3, 3));
        assert_eq!(vehicle_cost(&v, &engine, TimePoint::from_hms(12, 0, 0)), Some(0.0));
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

        let priced =
            marginal_costs(&vehicle, &batches, &ShortestPathEngine::cached(b.build()), t, &config);
        assert_eq!(priced.len(), offers.len());
        for (offer, got) in offers.iter().zip(&priced) {
            let want = reference_marginal_cost(&vehicle, &[*offer], &engine, t, &config);
            assert_eq!(got.is_feasible(), offer.id != far.id && offer.id != heavy.id);
            match (got, &want) {
                (
                    MarginalCost::Feasible { cost_secs, route },
                    MarginalCost::Feasible { cost_secs: want_secs, route: want_route },
                ) => {
                    assert_eq!(cost_secs.to_bits(), want_secs.to_bits(), "{}", offer.id);
                    assert_eq!(route, want_route, "{}", offer.id);
                }
                (MarginalCost::Infeasible, MarginalCost::Infeasible) => {}
                _ => panic!("{}: {got:?} vs reference {want:?}", offer.id),
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
        let feasible = MarginalCost::Feasible {
            cost_secs: 250.0,
            route: EvaluatedRoute {
                plan: crate::route::RoutePlan::empty(),
                cost_secs: 250.0,
                driving_time: Duration::ZERO,
                waiting_time: Duration::ZERO,
                deliveries: Vec::new(),
                start_node: NodeId(0),
                finish_at: TimePoint::MIDNIGHT,
            },
        };
        assert_eq!(feasible.edge_weight(&config), 100.0);
    }
}
