//! The window step: a run's state, listed once, the one step that moves it,
//! and the one clock that decides when it moves.
//!
//! [`RunState`] is everything a dispatch run owns — configuration, horizon,
//! clock, arrival queue, order book, pending pool, fleet, event schedule and
//! metrics — and this file is the only place those fields are listed: the
//! struct, its constructor and its [`Codec`]. [`RunState::step_window`] is
//! Fig. 5 of the paper as a function of `(state, engine, policy)`: apply the
//! events that fired, move the vehicles, admit and expire orders, ask the
//! policy, apply the assignment. There is no recorder, log or filesystem
//! under it; [`DispatchService`](crate::DispatchService) is the shell that
//! adds telemetry, and the durable wrapper and the checkpoint container sit
//! on top of that.
//!
//! [`advance_windows`] is the one loop around the step: which windows close
//! by a target instant, and when the drain ends the run. The service runs
//! it over one state, the router over N that share one [`Clock`].
//!
//! An order's life is one [`OrderEntry`] in the order book, keyed by id in a
//! `BTreeMap` (so iteration and encoding are key-ordered by construction).
//! Its [`OrderPhase`] says how far it got; which pool or vehicle holds an
//! `Arrived` order is answered by the containers that own the [`Order`]
//! values (`pending`, `VehicleState::carried`), never by a second index.

use crate::fleet::{CarriedOrder, FleetEvent, VehicleState};
use crate::metrics::{MetricsCollector, WindowStats};
use crate::service::{AdvanceOutcome, AdvanceStatus, DispatchOutput, IngestOutcome, SubmitOutcome};
use foodmatch_core::codec::{ByteReader, Codec, DecodeError};
use foodmatch_core::route::{plan_optimal_route, PlannedOrder};
use foodmatch_core::{DispatchConfig, DispatchPolicy, Order, OrderId, VehicleId, WindowSnapshot};
use foodmatch_events::{DisruptionEvent, EventKind, EventSchedule};
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// How far an admitted order has got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OrderPhase {
    /// Submitted; its `placed_at` has not been reached yet.
    Queued,
    /// Entered a window: waiting in the pending pool or riding on a vehicle.
    Arrived,
    /// Reached its customer.
    Delivered,
    /// Stayed unassigned past the deadline (or past the drain cutoff).
    Rejected,
    /// Cancelled by the customer before pickup.
    Cancelled,
}

/// The order book's record of one admitted order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct OrderEntry {
    pub(crate) placed_at: TimePoint,
    /// SDT, evaluated at submission time (Definition 6).
    pub(crate) sdt: Duration,
    pub(crate) phase: OrderPhase,
    /// Prep delays that fired while the order was still `Queued`; added to
    /// its preparation time when it arrives.
    pub(crate) prep_delay_on_arrival: Duration,
}

/// The complete state of one dispatch run. See the [module docs](self).
#[derive(Clone, Debug)]
pub(crate) struct RunState {
    pub(crate) config: DispatchConfig,
    pub(crate) start: TimePoint,
    pub(crate) end: TimePoint,
    pub(crate) drain_end: TimePoint,
    /// Close time of the last processed window; `start` before any stepping.
    pub(crate) window_close: TimePoint,
    /// Every submitted order, sorted by `(placed_at, id)` past the arrival
    /// cursor `next_order`.
    pub(crate) orders: Vec<Order>,
    pub(crate) next_order: usize,
    pub(crate) book: BTreeMap<OrderId, OrderEntry>,
    pub(crate) pending: Vec<Order>,
    pub(crate) vehicles: Vec<VehicleState>,
    pub(crate) schedule: EventSchedule,
    pub(crate) collector: MetricsCollector,
    pub(crate) finished: bool,
}

impl RunState {
    /// An idle run at `start` with the given fleet and nothing submitted.
    pub(crate) fn new(
        policy_name: &str,
        vehicle_starts: &[(VehicleId, NodeId)],
        config: DispatchConfig,
        start: TimePoint,
        end: TimePoint,
        drain_limit: Duration,
    ) -> Self {
        RunState {
            config,
            start,
            end,
            drain_end: end + drain_limit,
            window_close: start,
            orders: Vec::new(),
            next_order: 0,
            book: BTreeMap::new(),
            pending: Vec::new(),
            vehicles: vehicle_starts
                .iter()
                .map(|&(id, node)| VehicleState::new(id, node))
                .collect(),
            schedule: EventSchedule::new(Vec::new()),
            collector: MetricsCollector::new(policy_name, 0, end - start),
            finished: false,
        }
    }

    /// Where this run stands on the window clock.
    pub(crate) fn clock(&self) -> Clock {
        Clock {
            now: self.window_close,
            finished: self.finished,
            delta: self.config.accumulation_window,
            drain_end: self.drain_end,
        }
    }

    /// Makes `engine`'s overlay the one the schedule says is active: none
    /// for a fresh run, the re-rendered disruption set for a run restored
    /// from a checkpoint (the handle arrives in an arbitrary overlay state).
    pub(crate) fn install_overlay(&mut self, engine: &ShortestPathEngine) {
        if engine.has_overlay() {
            engine.clear_overlay();
        }
        if self.schedule.traffic_active() {
            engine.set_overlay(self.schedule.overlay(engine.network()));
        }
    }

    /// Admits one order: checks it, prices its SDT under the network
    /// conditions active right now, and queues it in arrival order.
    pub(crate) fn submit_order(
        &mut self,
        order: Order,
        engine: &ShortestPathEngine,
    ) -> SubmitOutcome {
        if self.finished {
            return SubmitOutcome::ServiceFinished;
        }
        let nodes = engine.network().node_count();
        if order.restaurant.index() >= nodes || order.customer.index() >= nodes {
            return SubmitOutcome::NoZoneForLocation;
        }
        let Entry::Vacant(slot) = self.book.entry(order.id) else {
            return SubmitOutcome::Duplicate;
        };
        let sdt = engine
            .travel_time(order.restaurant, order.customer, order.placed_at)
            .map(|sp| order.prep_time + sp)
            .unwrap_or(Duration::ZERO);
        slot.insert(OrderEntry {
            placed_at: order.placed_at,
            sdt,
            phase: OrderPhase::Queued,
            prep_delay_on_arrival: Duration::ZERO,
        });
        self.collector.record_offered();
        // Keep the unconsumed tail sorted by (placed_at, id) — the exact
        // arrival order of the batch loop.
        let tail = &self.orders[self.next_order..];
        let offset = tail.partition_point(|o| (o.placed_at, o.id) <= (order.placed_at, order.id));
        self.orders.insert(self.next_order + offset, order);
        SubmitOutcome::Accepted
    }

    /// Schedules one disruption event, unless it names a node that is not
    /// in the engine's network.
    pub(crate) fn ingest_event(
        &mut self,
        event: DisruptionEvent,
        engine: &ShortestPathEngine,
    ) -> IngestOutcome {
        if self.finished {
            return IngestOutcome::ServiceFinished;
        }
        if names_node_outside(&event, engine.network().node_count()) {
            return IngestOutcome::NoZoneForLocation;
        }
        self.schedule.push(event);
        IngestOutcome::Accepted
    }

    /// Processes exactly one accumulation window closing at `window_close`.
    pub(crate) fn step_window<P: DispatchPolicy + ?Sized>(
        &mut self,
        window_close: TimePoint,
        engine: &ShortestPathEngine,
        policy: &mut P,
        out: &mut Vec<DispatchOutput>,
    ) {
        let delta = self.config.accumulation_window;
        self.window_close = window_close;
        let in_horizon = window_close <= self.end + delta;
        let reshuffle = policy.uses_reshuffling(&self.config);

        // 0. Drain disruption events that fall inside this window; they take
        //    effect at the window's open, before vehicles drive through it.
        if !self.schedule.is_empty() {
            self.apply_events(window_close, engine, out);
        }

        // 1. Advance vehicles and harvest their events.
        for vehicle in &mut self.vehicles {
            let id = vehicle.id;
            for event in vehicle.advance(window_close) {
                match event {
                    FleetEvent::Drove { length_m, load } => {
                        self.collector.record_drive(window_close, load, length_m);
                    }
                    FleetEvent::PickedUp { order, at, waited } => {
                        self.collector.record_wait(at, waited);
                        out.push(DispatchOutput::PickedUp { order, vehicle: id, at, waited });
                    }
                    FleetEvent::Delivered { order, at } => {
                        let (placed_at, sdt) =
                            self.book.get_mut(&order).map_or((at, Duration::ZERO), |entry| {
                                entry.phase = OrderPhase::Delivered;
                                (entry.placed_at, entry.sdt)
                            });
                        let record = self.collector.record_delivery(order, placed_at, at, sdt);
                        out.push(DispatchOutput::Delivered {
                            order,
                            vehicle: id,
                            at,
                            xdt: record.xdt,
                        });
                    }
                }
            }
        }

        // 2. New arrivals and deadline rejections. Orders cancelled before
        //    they arrived are swallowed (already accounted as cancellations);
        //    prep delays that fired meanwhile are applied on arrival.
        while self.next_order < self.orders.len()
            && self.orders[self.next_order].placed_at <= window_close
        {
            let mut order = self.orders[self.next_order];
            self.next_order += 1;
            let entry = self.book.get_mut(&order.id).expect("every queued order is in the book");
            if entry.phase == OrderPhase::Cancelled {
                continue;
            }
            order.prep_time += entry.prep_delay_on_arrival;
            entry.phase = OrderPhase::Arrived;
            self.pending.push(order);
        }
        let (collector, book) = (&mut self.collector, &mut self.book);
        let deadline = self.config.rejection_deadline;
        self.pending.retain(|o| {
            let expired = window_close.saturating_since(o.placed_at) > deadline;
            if expired {
                collector.record_rejection(o.id);
                set_phase(book, o.id, OrderPhase::Rejected);
                out.push(DispatchOutput::Rejected { order: o.id, at: window_close });
            }
            !expired
        });

        // Termination: past the horizon with nothing left to do.
        let all_arrived = self.next_order >= self.orders.len();
        let fleet_idle = self.vehicles.iter().all(VehicleState::is_idle);
        if window_close > self.end && all_arrived && self.pending.is_empty() && fleet_idle {
            self.finalize(engine, out);
            return;
        }

        // 3–4. Snapshot and policy call.
        if self.pending.is_empty() && !reshuffle {
            // Nothing to assign; skip the policy call but keep advancing.
            return;
        }
        let mut snapshot_orders = self.pending.clone();
        if reshuffle {
            for vehicle in self.vehicles.iter().filter(|v| v.on_shift) {
                snapshot_orders.extend(vehicle.unpicked_orders());
            }
        }
        if snapshot_orders.is_empty() {
            return;
        }
        // Off-shift vehicles are invisible to the dispatcher.
        let snapshots =
            self.vehicles.iter().filter(|v| v.on_shift).map(|v| v.snapshot(reshuffle)).collect();
        let window = WindowSnapshot::new(window_close, snapshot_orders, snapshots);
        let order_count = window.order_count();
        let vehicle_count = window.vehicle_count();

        // `compute_secs` is a *reported* wall-clock measurement (the
        // paper's per-window compute budget); it feeds `WindowStats`, which
        // golden comparisons normalise.
        #[expect(clippy::disallowed_methods, reason = "the reported per-window compute budget")]
        let started = Instant::now();
        let outcome = policy.assign(&window, engine, &self.config);
        let compute_secs = started.elapsed().as_secs_f64();
        debug_assert!(outcome.validate(&window).is_ok(), "policy produced invalid outcome");

        if in_horizon {
            let stats = WindowStats {
                closed_at: window_close,
                slot: window_close.hour_slot(),
                orders: order_count,
                vehicles: vehicle_count,
                assigned: outcome.assigned_order_count(),
                compute_secs,
                overflown: compute_secs > delta.as_secs_f64(),
                disrupted: self.schedule.traffic_active(),
            };
            self.collector.record_window(stats);
            out.push(DispatchOutput::WindowClosed { stats });
        }

        // 5. Apply the assignment.
        let order_lookup: HashMap<OrderId, Order> =
            window.orders.iter().map(|o| (o.id, *o)).collect();
        // Both sets below drive loops whose side effects land in the output
        // stream, so they are BTreeSets: iteration order must come from the
        // keys, never from hasher state (`nondeterministic-iteration`).
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        // Carried order-id sets before this window's changes; vehicles whose
        // set is unchanged keep their current itinerary, so partial progress
        // along an edge is never thrown away by a no-op replan.
        let carried_before: Vec<Vec<OrderId>> = self
            .vehicles
            .iter()
            .map(|v| {
                let mut ids: Vec<OrderId> = v.carried.iter().map(|c| c.order.id).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        let assigned_now: BTreeSet<OrderId> =
            outcome.assignments.iter().flat_map(|a| a.orders.iter().copied()).collect();

        // Detach every order that the matching moved somewhere (it may be
        // re-attached to the same vehicle below). Orders the matching did
        // NOT touch keep their incumbent vehicle — reshuffling re-examines
        // assignments, it never strands an order that already had a ride.
        for &order_id in &assigned_now {
            self.pending.retain(|o| o.id != order_id);
            for (vi, vehicle) in self.vehicles.iter_mut().enumerate() {
                if vehicle.remove_unpicked(order_id) {
                    touched.insert(vi);
                }
            }
        }
        // Attach the orders to their new vehicles. If a vehicle that
        // receives a new batch still holds unpicked orders the matching left
        // untouched and the combination would exceed its capacity, the
        // untouched ones are released back into the pending pool (they will
        // be re-offered next window).
        for assignment in &outcome.assignments {
            let Some(vi) = self.vehicle_position(assignment.vehicle) else { continue };
            touched.insert(vi);
            for &order_id in &assignment.orders {
                let Some(&order) = order_lookup.get(&order_id) else { continue };
                self.vehicles[vi].carried.push(CarriedOrder { order, picked_up: false });
                out.push(DispatchOutput::Assigned {
                    order: order_id,
                    vehicle: assignment.vehicle,
                    at: window_close,
                });
            }
            let vehicle = &mut self.vehicles[vi];
            while vehicle.carried.len() > self.config.max_orders_per_vehicle
                || vehicle.carried.iter().map(|c| c.order.items).sum::<u32>()
                    > self.config.max_items_per_vehicle
            {
                // Release the oldest untouched, unpicked order that is not
                // part of this window's batch for the vehicle.
                let Some(pos) = vehicle
                    .carried
                    .iter()
                    .position(|c| !c.picked_up && !assigned_now.contains(&c.order.id))
                else {
                    break;
                };
                let released = vehicle.carried.remove(pos);
                self.pending.push(released.order);
            }
        }
        // Replan every vehicle whose carried set actually changed.
        for vi in touched {
            let vehicle = &mut self.vehicles[vi];
            let mut ids_now: Vec<OrderId> = vehicle.carried.iter().map(|c| c.order.id).collect();
            ids_now.sort_unstable();
            if ids_now == carried_before[vi] {
                continue;
            }
            replan_vehicle(vehicle, window_close, engine);
        }
    }

    /// Drains the event schedule up to `window_close` and applies what
    /// fired: overlay swaps plus in-flight re-timing for traffic changes,
    /// route repair for cancellations / prep delays / shift churn.
    fn apply_events(
        &mut self,
        window_close: TimePoint,
        engine: &ShortestPathEngine,
        out: &mut Vec<DispatchOutput>,
    ) {
        let window_open = window_close - self.config.accumulation_window;
        let fired = self.schedule.advance_to(window_close);
        if fired.traffic_changed {
            if self.schedule.traffic_active() {
                engine.set_overlay(self.schedule.overlay(engine.network()));
            } else {
                engine.clear_overlay();
            }
            self.collector.set_disruption_active(self.schedule.traffic_active());
            // In-flight itineraries were expanded at the old speeds; re-time
            // (and, where the planner prefers, re-route) every en-route
            // vehicle so fleet physics track the perturbed oracle.
            for vehicle in self.vehicles.iter_mut().filter(|v| v.is_en_route()) {
                replan_vehicle(vehicle, window_open, engine);
            }
        }
        for event in fired.fired {
            match event.kind {
                EventKind::OrderCancelled { order } => {
                    // Never submitted here: nothing to cancel.
                    let Some(phase) = self.book.get(&order).map(|entry| entry.phase) else {
                        continue;
                    };
                    let picked_up = self
                        .vehicles
                        .iter()
                        .any(|v| v.carried.iter().any(|c| c.picked_up && c.order.id == order));
                    if picked_up || matches!(phase, OrderPhase::Delivered | OrderPhase::Cancelled) {
                        // Too late (food already on board or done) or a
                        // duplicate event: the platform delivers.
                        continue;
                    }
                    if let Some(pos) = self.pending.iter().position(|o| o.id == order) {
                        self.pending.remove(pos);
                    } else if let Some(vi) = self.unpicked_carrier(order) {
                        // Route repair: drop the stop pair and replan the
                        // rest of the vehicle's load.
                        self.vehicles[vi].remove_unpicked(order);
                        replan_vehicle(&mut self.vehicles[vi], window_open, engine);
                    } else if phase != OrderPhase::Queued {
                        // Already rejected.
                        continue;
                    }
                    // A still-queued order is swallowed on arrival.
                    set_phase(&mut self.book, order, OrderPhase::Cancelled);
                    self.collector.record_cancellation(order);
                    out.push(DispatchOutput::Cancelled { order, at: event.at });
                }
                EventKind::PrepDelay { order, extra } => {
                    if let Some(o) = self.pending.iter_mut().find(|o| o.id == order) {
                        o.prep_time += extra;
                    } else if let Some(vi) = self.unpicked_carrier(order) {
                        let vehicle = &mut self.vehicles[vi];
                        for carried in vehicle.carried.iter_mut().filter(|c| c.order.id == order) {
                            carried.order.prep_time += extra;
                        }
                        // The planned wait at the restaurant is stale.
                        replan_vehicle(vehicle, window_open, engine);
                    } else if let Some(entry) =
                        self.book.get_mut(&order).filter(|entry| entry.phase == OrderPhase::Queued)
                    {
                        entry.prep_delay_on_arrival += extra;
                    }
                    // Picked-up or finished orders are unaffected.
                }
                EventKind::VehicleOffShift { vehicle } => {
                    if let Some(vi) = self.vehicle_position(vehicle) {
                        let state = &mut self.vehicles[vi];
                        if state.on_shift {
                            state.on_shift = false;
                            // Unpicked orders re-enter the pool; the vehicle
                            // finishes what is on board.
                            let released = state.take_unpicked();
                            if !released.is_empty() {
                                self.pending.extend(released);
                                replan_vehicle(state, window_open, engine);
                            }
                        }
                    }
                }
                EventKind::VehicleOnShift { vehicle, location } => {
                    match self.vehicle_position(vehicle) {
                        Some(vi) => self.vehicles[vi].on_shift = true,
                        None => self.vehicles.push(VehicleState::new(vehicle, location)),
                    }
                }
                EventKind::Traffic(_) => {
                    unreachable!("traffic events are absorbed by the schedule")
                }
            }
        }
    }

    /// Final accounting when the run ends: pending and never-arrived orders
    /// are rejected (with `Rejected` outputs); orders still on a vehicle
    /// are recorded as undelivered in the report only (see
    /// [`DispatchOutput::Rejected`]); the shared engine is handed back
    /// overlay-free for the next run.
    pub(crate) fn finalize(&mut self, engine: &ShortestPathEngine, out: &mut Vec<DispatchOutput>) {
        self.finished = true;
        if engine.has_overlay() {
            engine.clear_overlay();
        }
        for order in &self.pending {
            self.collector.record_rejection(order.id);
            set_phase(&mut self.book, order.id, OrderPhase::Rejected);
            out.push(DispatchOutput::Rejected { order: order.id, at: self.window_close });
        }
        for carried in self.vehicles.iter().flat_map(|v| &v.carried) {
            self.collector.record_undelivered(carried.order.id);
        }
        // Orders that never even entered a window (horizon cut short).
        for order in &self.orders[self.next_order..] {
            let entry = self.book.get_mut(&order.id).expect("every queued order is in the book");
            if entry.phase == OrderPhase::Queued {
                entry.phase = OrderPhase::Rejected;
                self.collector.record_rejection(order.id);
                out.push(DispatchOutput::Rejected { order: order.id, at: self.window_close });
            }
        }
    }

    fn vehicle_position(&self, id: VehicleId) -> Option<usize> {
        self.vehicles.iter().position(|v| v.id == id)
    }

    /// The vehicle holding `order` assigned but not yet picked up, if any.
    fn unpicked_carrier(&self, order: OrderId) -> Option<usize> {
        self.vehicles
            .iter()
            .position(|v| v.carried.iter().any(|c| !c.picked_up && c.order.id == order))
    }
}

/// One tick of the window clock: the window closing at an instant, or the
/// drain that finalizes the run once the next close passes its deadline.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Tick {
    Close(TimePoint),
    Drain,
}

/// Where a dispatcher stands on the window clock: the close of its last
/// window, whether it has finished, Δ and the drain deadline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Clock {
    pub(crate) now: TimePoint,
    pub(crate) finished: bool,
    pub(crate) delta: Duration,
    pub(crate) drain_end: TimePoint,
}

impl Clock {
    /// The one clock of run states ticked together: the latest close (where
    /// every unfinished state stands), finished once every state is.
    pub(crate) fn lockstep(clocks: impl IntoIterator<Item = Clock>) -> Clock {
        let merge = |a: Clock, b: Clock| Clock {
            now: a.now.max(b.now),
            finished: a.finished && b.finished,
            ..a
        };
        clocks.into_iter().reduce(merge).expect("at least one run state")
    }
}

/// The accumulation-window loop, from `clock` to `until`: every window that
/// closes by `until` is ticked whole, then the drain once the next close
/// passes the deadline. `tick` steps the dispatcher and says whether it has
/// now finished. A target behind the clock steps nothing and is refused.
pub(crate) fn advance_windows<T>(
    clock: Clock,
    until: TimePoint,
    mut tick: impl FnMut(Tick, &mut Vec<T>) -> bool,
) -> AdvanceOutcome<T> {
    let (mut outputs, mut now) = (Vec::new(), clock.now);
    let status = if clock.finished {
        AdvanceStatus::Finished
    } else if until < now {
        AdvanceStatus::OutOfOrder { requested: until, clock: now }
    } else {
        let mut status = AdvanceStatus::Pending;
        loop {
            let next_close = now + clock.delta;
            if next_close > clock.drain_end {
                tick(Tick::Drain, &mut outputs);
                break AdvanceStatus::Advanced;
            }
            if next_close > until {
                break status;
            }
            (now, status) = (next_close, AdvanceStatus::Advanced);
            if tick(Tick::Close(now), &mut outputs) {
                break status;
            }
        }
    };
    AdvanceOutcome { outputs, status }
}

/// True when `event` places a vehicle, or centers an incident, on a node
/// that is not one of the network's `nodes` — input to refuse at the door
/// (the window that fired it would index past the node table).
pub(crate) fn names_node_outside(event: &DisruptionEvent, nodes: usize) -> bool {
    let node = match event.kind {
        EventKind::VehicleOnShift { location, .. } => Some(location),
        EventKind::Traffic(disruption) => disruption.center,
        _ => None,
    };
    node.is_some_and(|node| node.index() >= nodes)
}

/// Deployment configuration, not input: a fleet that starts off the network
/// is a construction-time panic naming the vehicle.
pub(crate) fn assert_fleet_on_network(vehicle_starts: &[(VehicleId, NodeId)], nodes: usize) {
    for &(vehicle, node) in vehicle_starts {
        assert!(
            node.index() < nodes,
            "vehicle {vehicle} starts on {node:?}, which is not a node of the {nodes}-node network"
        );
    }
}

fn set_phase(book: &mut BTreeMap<OrderId, OrderEntry>, order: OrderId, phase: OrderPhase) {
    if let Some(entry) = book.get_mut(&order) {
        entry.phase = phase;
    }
}

/// Re-plans `vehicle`'s quickest route for its current carried set from its
/// current location at `now`, replacing the edge-level itinerary. Used both
/// by the assignment step and by event-driven route repair (cancellations,
/// prep delays, shift ends).
fn replan_vehicle(vehicle: &mut VehicleState, now: TimePoint, engine: &ShortestPathEngine) {
    let planned: Vec<PlannedOrder> = vehicle
        .carried
        .iter()
        .map(|c| PlannedOrder { order: c.order, picked_up: c.picked_up })
        .collect();
    let carried = vehicle.carried.clone();
    let route = plan_optimal_route(vehicle.location, now, &planned, engine).unwrap_or_else(|| {
        foodmatch_core::EvaluatedRoute {
            plan: foodmatch_core::RoutePlan::empty(),
            cost_secs: 0.0,
            driving_time: Duration::ZERO,
            waiting_time: Duration::ZERO,
            deliveries: Vec::new(),
            start_node: vehicle.location,
            finish_at: now,
        }
    });
    vehicle.install_plan(carried, &route, now, engine);
}

pub(crate) fn require(cond: bool, msg: impl FnOnce() -> String) -> Result<(), DecodeError> {
    if cond {
        Ok(())
    } else {
        Err(DecodeError::Invalid(msg()))
    }
}

impl Codec for OrderPhase {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(reader)? {
            0 => Ok(OrderPhase::Queued),
            1 => Ok(OrderPhase::Arrived),
            2 => Ok(OrderPhase::Delivered),
            3 => Ok(OrderPhase::Rejected),
            4 => Ok(OrderPhase::Cancelled),
            other => Err(DecodeError::Invalid(format!("unknown order phase tag {other}"))),
        }
    }
}

impl Codec for OrderEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.placed_at.encode(out);
        self.sdt.encode(out);
        self.phase.encode(out);
        self.prep_delay_on_arrival.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(OrderEntry {
            placed_at: TimePoint::decode(reader)?,
            sdt: Duration::decode(reader)?,
            phase: OrderPhase::decode(reader)?,
            prep_delay_on_arrival: Duration::decode(reader)?,
        })
    }
}

/// The whole run round-trips bit-exactly; decoding validates what the step
/// relies on (horizon order, cursor bounds, a book entry per submitted
/// order, distinct vehicle ids) and never panics on hostile bytes.
impl Codec for RunState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.config.encode(out);
        self.start.encode(out);
        self.end.encode(out);
        self.drain_end.encode(out);
        self.window_close.encode(out);
        self.orders.encode(out);
        self.next_order.encode(out);
        self.book.encode(out);
        self.pending.encode(out);
        self.vehicles.encode(out);
        self.schedule.encode(out);
        self.collector.encode(out);
        self.finished.encode(out);
    }

    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let state = RunState {
            config: Codec::decode(reader)?,
            start: Codec::decode(reader)?,
            end: Codec::decode(reader)?,
            drain_end: Codec::decode(reader)?,
            window_close: Codec::decode(reader)?,
            orders: Codec::decode(reader)?,
            next_order: Codec::decode(reader)?,
            book: Codec::decode(reader)?,
            pending: Codec::decode(reader)?,
            vehicles: Codec::decode(reader)?,
            schedule: Codec::decode(reader)?,
            collector: Codec::decode(reader)?,
            finished: Codec::decode(reader)?,
        };
        let RunState { start, end, drain_end, window_close, orders, next_order, book, .. } = &state;
        require(start <= end && end <= drain_end, || {
            format!("checkpoint horizon out of order: start {start:?}, end {end:?}, drain {drain_end:?}")
        })?;
        require(start <= window_close && window_close <= drain_end, || {
            format!("checkpoint clock {window_close:?} outside [start, drain] bounds")
        })?;
        require(*next_order <= orders.len(), || {
            format!("order cursor {next_order} past the {} submitted orders", orders.len())
        })?;
        require(
            book.len() == orders.len() && orders.iter().all(|o| book.contains_key(&o.id)),
            || {
                format!(
                    "order book ({} entries) does not match the {} orders",
                    book.len(),
                    orders.len()
                )
            },
        )?;
        let vehicle_ids: BTreeSet<VehicleId> = state.vehicles.iter().map(|v| v.id).collect();
        require(vehicle_ids.len() == state.vehicles.len(), || {
            "checkpoint fleet contains duplicate vehicle ids".to_string()
        })?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::{AssignmentOutcome, FoodMatchPolicy, VehicleAssignment};
    use foodmatch_events::{DisruptionCause, TrafficDisruption};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::CongestionProfile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use DispatchOutput::{Assigned, Cancelled, Delivered, PickedUp, Rejected, WindowClosed};

    /// Nodes of the test grid: 6 × 6, a kilometre apart.
    const NODES: usize = 36;
    const CANCEL: EventKind = EventKind::OrderCancelled { order: OrderId(1) };

    /// Hands the first offered order to the first vehicle, once per window
    /// while `calls` lasts; after that it declines everything.
    struct Scripted {
        calls: usize,
    }

    impl DispatchPolicy for Scripted {
        fn name(&self) -> &'static str {
            "Scripted"
        }

        fn assign(
            &mut self,
            window: &WindowSnapshot,
            _: &ShortestPathEngine,
            _: &DispatchConfig,
        ) -> AssignmentOutcome {
            let mut outcome = AssignmentOutcome::all_unassigned(window);
            if let (Some(vehicle), true) = (window.vehicles.first(), self.calls > 0) {
                self.calls -= 1;
                let orders = vec![outcome.unassigned.remove(0)];
                outcome.assignments.push(VehicleAssignment { vehicle: vehicle.id, orders });
            }
            outcome
        }
    }

    fn engine() -> ShortestPathEngine {
        let grid = GridCityBuilder::new(6, 6).spacing_m(1_000.0).major_every(0);
        ShortestPathEngine::cached(grid.congestion(CongestionProfile::free_flow()).build())
    }

    fn at(mins: f64) -> TimePoint {
        TimePoint::from_hms(12, 0, 0) + Duration::from_mins(mins)
    }

    /// The window clock without the shell: every window that closes by
    /// `until`, or the whole run.
    fn drive<P: DispatchPolicy + ?Sized>(
        state: &mut RunState,
        engine: &ShortestPathEngine,
        policy: &mut P,
        until: Option<TimePoint>,
    ) -> Vec<DispatchOutput> {
        let until = until.unwrap_or(state.drain_end);
        let mut out = advance_windows(state.clock(), until, |tick, out| {
            match tick {
                Tick::Close(close) => state.step_window(close, engine, policy, out),
                Tick::Drain => state.finalize(engine, out),
            }
            state.finished
        })
        .into_outputs();
        out.retain(|o| !matches!(o, WindowClosed { .. }));
        out
    }

    /// A whole run of one vehicle (at node 0) and order 1 (node 7 → node 35,
    /// 8 min of prep, placed `placed` minutes in) under `events`.
    fn run_one(
        calls: usize,
        placed: f64,
        events: &[(f64, EventKind)],
    ) -> (OrderEntry, Vec<DispatchOutput>) {
        let engine = engine();
        let fleet = [(VehicleId(0), NodeId(0))];
        let config = DispatchConfig::default();
        let mut state =
            RunState::new("Scripted", &fleet, config, at(0.0), at(60.0), Duration::from_hours(3.0));
        let prep = Duration::from_mins(8.0);
        let order = Order::new(OrderId(1), NodeId(7), NodeId(35), at(placed), 1, prep);
        assert!(state.submit_order(order, &engine).is_accepted());
        for &(mins, kind) in events {
            assert!(state
                .ingest_event(DisruptionEvent::new(at(mins), kind), &engine)
                .is_accepted());
        }
        let out = drive(&mut state, &engine, &mut Scripted { calls }, None);
        (state.book[&OrderId(1)], out)
    }

    #[test]
    fn an_order_cancelled_while_queued_is_swallowed_on_arrival() {
        let (entry, out) = run_one(usize::MAX, 7.0, &[(1.0, CANCEL)]);
        // One output when the event fired; nothing on arrival, and never an
        // assignment, which an order that reached the pool would have got.
        assert_eq!(out, vec![Cancelled { order: OrderId(1), at: at(1.0) }]);
        assert_eq!(entry.phase, OrderPhase::Cancelled);
    }

    #[test]
    fn prep_delays_that_fire_while_queued_are_applied_on_arrival() {
        let delay =
            |mins| EventKind::PrepDelay { order: OrderId(1), extra: Duration::from_mins(mins) };
        let (entry, out) = run_one(usize::MAX, 7.0, &[(1.0, delay(4.0)), (2.0, delay(1.0))]);
        assert_eq!(entry.prep_delay_on_arrival, Duration::from_mins(5.0), "both delays held");
        let picked_up = out.iter().find_map(|o| match o {
            PickedUp { at, .. } => Some(*at),
            _ => None,
        });
        assert_eq!(picked_up, Some(at(7.0 + 8.0 + 5.0)), "ready after prep plus both delays");
        assert_eq!(entry.phase, OrderPhase::Delivered);
    }

    #[test]
    fn an_order_released_by_off_shift_is_rejected_at_the_deadline_and_a_late_cancel_is_ignored() {
        let off = EventKind::VehicleOffShift { vehicle: VehicleId(0) };
        let (entry, out) = run_one(usize::MAX, 0.0, &[(4.0, off), (34.0, CANCEL)]);
        // Only a pooled order meets the deadline (counted from `placed_at`,
        // not from the release), and a rejected one cannot be cancelled.
        let assigned = Assigned { order: OrderId(1), vehicle: VehicleId(0), at: at(3.0) };
        assert_eq!(out, vec![assigned, Rejected { order: OrderId(1), at: at(33.0) }]);
        assert_eq!(entry.phase, OrderPhase::Rejected);
    }

    #[test]
    fn a_cancel_after_pickup_is_ignored() {
        // Fires at the window that opens at 12: food on board, far from done.
        let (entry, out) = run_one(usize::MAX, 0.0, &[(13.0, CANCEL)]);
        assert!(matches!(out[1], PickedUp { at: t, .. } if t < at(12.0)), "{:?}", out[1]);
        assert!(matches!(out[2], Delivered { at: t, .. } if t > at(15.0)), "{:?}", out[2]);
        assert_eq!(out.len(), 3, "assigned, picked up, delivered — the platform delivers");
        assert_eq!(entry.phase, OrderPhase::Delivered);
    }

    #[test]
    fn a_duplicate_cancel_is_ignored() {
        // Pooled (the policy declines) when the first fires; the second
        // fires in the same window, the third in a later one.
        let (entry, out) = run_one(0, 0.0, &[(4.0, CANCEL), (5.0, CANCEL), (10.0, CANCEL)]);
        assert_eq!(out, vec![Cancelled { order: OrderId(1), at: at(4.0) }]);
        assert_eq!(entry.phase, OrderPhase::Cancelled);
    }

    /// Conservation: whatever the script, at `finalize` every admitted order
    /// is in exactly one of the report's four buckets and its phase names
    /// that bucket.
    #[test]
    fn every_admitted_order_ends_in_exactly_one_bucket_on_random_scripts() {
        let engine = engine();
        let node = |rng: &mut StdRng| NodeId(rng.random_range(0..NODES as u32));
        // Orders seen per bucket over all cases, and those that never arrived.
        let (mut seen, mut never_arrived) = ([0usize; 4], 0);
        for case in 0..240u64 {
            let rng = &mut StdRng::seed_from_u64(0x57E9_0000 + case);
            let fleet: Vec<(VehicleId, NodeId)> =
                (0..rng.random_range(1u32..4)).map(|v| (VehicleId(v), node(rng))).collect();
            // A short horizon and drain leave orders never-arrived, pooled
            // and on board at the cutoff; a long drain delivers them.
            let end = at(rng.random_range(9.0..30.0));
            let drain = Duration::from_mins(if rng.random_bool(0.5) { 6.0 } else { 120.0 });
            let mut state =
                RunState::new("Random", &fleet, DispatchConfig::default(), at(0.0), end, drain);
            let orders = rng.random_range(3u64..12);
            for id in 0..orders {
                let (placed, prep) = (at(rng.random_range(0.0..40.0)), rng.random_range(1.0..15.0));
                let prep = Duration::from_mins(prep);
                let order = Order::new(OrderId(id), node(rng), node(rng), placed, 1, prep);
                assert!(state.submit_order(order, &engine).is_accepted(), "case {case}");
            }
            let mut events: Vec<DisruptionEvent> = (0..rng.random_range(0..10))
                .map(|_| {
                    let fires = at(rng.random_range(0.0..60.0));
                    // Ids past `orders` and the fleet are unknown to the run.
                    let order = OrderId(rng.random_range(0..orders + 2));
                    let vehicle = VehicleId(rng.random_range(0u32..5));
                    let extra = Duration::from_mins(rng.random_range(0.0..9.0));
                    let kind = match rng.random_range(0u8..5) {
                        0 => EventKind::OrderCancelled { order },
                        1 => EventKind::PrepDelay { order, extra },
                        2 => EventKind::VehicleOffShift { vehicle },
                        3 => EventKind::VehicleOnShift { vehicle, location: node(rng) },
                        _ => EventKind::Traffic(TrafficDisruption::city_wide(
                            DisruptionCause::Rain,
                            rng.random_range(1.0..3.0),
                            fires + Duration::from_mins(rng.random_range(1.0..20.0)),
                        )),
                    };
                    DisruptionEvent::new(fires, kind)
                })
                .collect();
            // Half the events are known up front, half arrive three windows
            // in; every other case runs the real, reshuffling policy.
            let late = events.split_off(events.len() / 2);
            let mut scripted = Scripted { calls: rng.random_range(0..8) };
            let mut foodmatch = FoodMatchPolicy::new();
            let policy: &mut dyn DispatchPolicy =
                if case % 2 == 0 { &mut scripted } else { &mut foodmatch };
            for (batch, until) in [(events, Some(at(9.0))), (late, None)] {
                for event in batch {
                    assert!(state.ingest_event(event, &engine).is_accepted(), "case {case}");
                }
                let _ = drive(&mut state, &engine, policy, until);
            }
            assert!(state.finished && !engine.has_overlay(), "case {case}");

            let report = state.collector.report();
            never_arrived += state.orders.len() - state.next_order;
            assert_eq!((report.total_orders, state.book.len()), (orders as usize, orders as usize));
            for (&id, entry) in &state.book {
                let buckets = [
                    (OrderPhase::Delivered, report.delivered.iter().filter(|d| d.id == id).count()),
                    (OrderPhase::Rejected, report.rejected.iter().filter(|&&r| r == id).count()),
                    (OrderPhase::Cancelled, report.cancelled.iter().filter(|&&c| c == id).count()),
                    (OrderPhase::Arrived, report.undelivered.iter().filter(|&&u| u == id).count()),
                ];
                for (bucket, (phase, hits)) in buckets.into_iter().enumerate() {
                    seen[bucket] += hits;
                    let expected = usize::from(entry.phase == phase);
                    assert_eq!(
                        hits, expected,
                        "case {case}: {id} ended {:?}, {phase:?}",
                        entry.phase
                    );
                }
            }
        }
        assert!(
            seen.iter().all(|&orders| orders > 0) && never_arrived > 0,
            "the scripts must reach every bucket: {seen:?}, {never_arrived} never arrived"
        );
    }
}
