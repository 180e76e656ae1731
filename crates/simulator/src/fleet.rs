//! Runtime vehicle state and movement along route plans.
//!
//! The dispatcher only ever sees [`VehicleSnapshot`]s; this module owns the
//! full picture: which orders a vehicle carries (each a [`PlannedOrder`],
//! the type the snapshot commits and the planner plans), the itinerary it is
//! executing (a route plan expanded to the road edges the oracle's path
//! drives, waits at restaurants, pickups and drop-offs), and how far it has
//! progressed. The simulation advances vehicles window by window; positions
//! between nodes are snapped to the last reached node, mirroring the paper's
//! "approximate its location to the closest node" rule.

use foodmatch_core::codec::{ByteReader, Codec, DecodeError};
use foodmatch_core::route::{PlannedOrder, RoutePlan, StopAction};
use foodmatch_core::{Order, OrderId, VehicleId, VehicleSnapshot};
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};
use std::collections::VecDeque;

/// One step of a vehicle's itinerary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ItineraryStep {
    /// Drive one road edge.
    Travel {
        /// Node the edge arrives at.
        to: NodeId,
        /// Arrival time.
        arrive: TimePoint,
        /// Edge length in meters.
        length_m: f64,
    },
    /// Wait at a restaurant until the food is ready.
    Wait {
        /// When the wait starts (arrival at the restaurant).
        from: TimePoint,
        /// When the wait ends (food ready).
        until: TimePoint,
    },
    /// Collect an order.
    Pickup {
        /// The order collected.
        order: OrderId,
        /// When the pickup happens.
        at: TimePoint,
    },
    /// Deliver an order.
    Dropoff {
        /// The order delivered.
        order: OrderId,
        /// When the drop-off happens.
        at: TimePoint,
    },
}

impl ItineraryStep {
    /// The simulation time at which this step completes.
    pub fn completes_at(&self) -> TimePoint {
        match *self {
            ItineraryStep::Travel { arrive, .. } => arrive,
            ItineraryStep::Wait { until, .. } => until,
            ItineraryStep::Pickup { at, .. } | ItineraryStep::Dropoff { at, .. } => at,
        }
    }
}

/// Events a vehicle reports back to the simulation while advancing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FleetEvent {
    /// An order was picked up at `at`; the vehicle had waited `waited` for it.
    PickedUp {
        /// The order.
        order: OrderId,
        /// Pickup time.
        at: TimePoint,
        /// Time spent waiting at the restaurant for this pickup.
        waited: Duration,
    },
    /// An order was delivered at `at`.
    Delivered {
        /// The order.
        order: OrderId,
        /// Delivery time.
        at: TimePoint,
    },
    /// The vehicle drove one edge while carrying `load` picked-up orders.
    Drove {
        /// Meters driven.
        length_m: f64,
        /// Number of picked-up orders on board during the edge.
        load: usize,
    },
}

/// Full runtime state of one delivery vehicle.
#[derive(Clone, Debug)]
pub struct VehicleState {
    /// The vehicle's id.
    pub id: VehicleId,
    /// Current position, snapped to the last reached node.
    pub location: NodeId,
    /// Orders currently assigned to the vehicle (picked up or not).
    pub carried: Vec<PlannedOrder>,
    /// Whether the driver is on shift. Off-shift vehicles are not offered to
    /// the dispatcher; they still finish the deliveries already on board.
    pub on_shift: bool,
    itinerary: VecDeque<ItineraryStep>,
    /// Waiting time accumulated since the last pickup event (used to
    /// attribute waits to the right order).
    pending_wait: Duration,
}

impl VehicleState {
    /// Creates an idle, on-shift vehicle at `location`.
    pub fn new(id: VehicleId, location: NodeId) -> Self {
        VehicleState {
            id,
            location,
            carried: Vec::new(),
            on_shift: true,
            itinerary: VecDeque::new(),
            pending_wait: Duration::ZERO,
        }
    }

    /// True if the vehicle has nothing left to do.
    pub fn is_idle(&self) -> bool {
        self.itinerary.is_empty() && self.carried.is_empty()
    }

    /// True while the vehicle is executing an itinerary. Used by the
    /// simulation to re-time in-flight routes when traffic conditions change
    /// (itinerary steps carry precomputed edge times).
    pub fn is_en_route(&self) -> bool {
        !self.itinerary.is_empty()
    }

    /// Orders assigned but not yet picked up (the reshufflable set).
    pub fn unpicked_orders(&self) -> Vec<Order> {
        self.carried.iter().filter(|c| !c.picked_up).map(|c| c.order).collect()
    }

    /// The node the vehicle is currently driving towards, if any.
    pub fn heading(&self) -> Option<NodeId> {
        self.itinerary.iter().find_map(|step| match step {
            ItineraryStep::Travel { to, .. } => Some(*to),
            _ => None,
        })
    }

    /// Number of picked-up orders currently on board.
    pub fn onboard_load(&self) -> usize {
        self.carried.iter().filter(|c| c.picked_up).count()
    }

    /// The dispatcher-facing snapshot of this vehicle.
    ///
    /// `reshuffle` controls which orders count as *committed*: with
    /// reshuffling enabled only picked-up orders are committed (the rest go
    /// back into the window's order pool); without it, everything the vehicle
    /// carries is committed.
    pub fn snapshot(&self, reshuffle: bool) -> VehicleSnapshot {
        let committed =
            self.carried.iter().filter(|c| c.picked_up || !reshuffle).copied().collect();
        let tentative = if reshuffle {
            self.carried.iter().filter(|c| !c.picked_up).map(|c| c.order.id).collect()
        } else {
            Vec::new()
        };
        VehicleSnapshot {
            id: self.id,
            location: self.location,
            heading: self.heading(),
            committed,
            tentative,
        }
    }

    /// Detaches every not-yet-picked-up order from the vehicle, returning
    /// them. Used when reshuffling puts unpicked orders back into the
    /// window's pool before the new assignment is applied (§IV-D2).
    pub fn take_unpicked(&mut self) -> Vec<Order> {
        let removed = self.unpicked_orders();
        if !removed.is_empty() {
            self.carried.retain(|c| c.picked_up);
        }
        removed
    }

    /// Removes a not-yet-picked-up order (because it was reshuffled to
    /// another vehicle or rejected). Returns true if the order was present.
    pub fn remove_unpicked(&mut self, order: OrderId) -> bool {
        let before = self.carried.len();
        self.carried.retain(|c| c.picked_up || c.order.id != order);
        before != self.carried.len()
    }

    /// Replaces the itinerary with `plan`, a route plan serving the orders in
    /// [`Self::carried`], expanded into an edge-level itinerary starting at
    /// the vehicle's current location and time.
    ///
    /// Legs whose shortest path cannot be found (disconnected network) are
    /// skipped; affected orders simply never get picked up and will surface
    /// as undelivered in the report — the synthetic networks used by the
    /// experiments are connected, so this is a corner case.
    pub fn install_plan(&mut self, plan: &RoutePlan, now: TimePoint, engine: &ShortestPathEngine) {
        self.itinerary.clear();
        self.pending_wait = Duration::ZERO;

        let network = engine.network();
        let mut cursor_node = self.location;
        let mut cursor_time = now;
        for stop in &plan.stops {
            // Drive to the stop, along the very edges the oracle's path took.
            if stop.node != cursor_node {
                let Some(path) = engine.shortest_path(cursor_node, stop.node, cursor_time) else {
                    continue;
                };
                for eid in path.edges {
                    // Overlay-aware: a vehicle drives slower through an
                    // active disruption, exactly as the oracle predicted.
                    cursor_time += engine.edge_travel_time(eid, cursor_time);
                    let edge = network.edge(eid);
                    self.itinerary.push_back(ItineraryStep::Travel {
                        to: edge.to,
                        arrive: cursor_time,
                        length_m: edge.length_m,
                    });
                }
                cursor_node = stop.node;
            }
            // Handle the stop itself.
            let order = self.carried.iter().find(|c| c.order.id == stop.order).map(|c| c.order);
            let Some(order) = order else { continue };
            match stop.action {
                StopAction::Pickup => {
                    let ready = order.ready_at();
                    if ready > cursor_time {
                        self.itinerary
                            .push_back(ItineraryStep::Wait { from: cursor_time, until: ready });
                        cursor_time = ready;
                    }
                    self.itinerary
                        .push_back(ItineraryStep::Pickup { order: order.id, at: cursor_time });
                }
                StopAction::Dropoff => {
                    self.itinerary
                        .push_back(ItineraryStep::Dropoff { order: order.id, at: cursor_time });
                }
            }
        }
    }

    /// Advances the vehicle to `until`, returning the events that happened.
    pub fn advance(&mut self, until: TimePoint) -> Vec<FleetEvent> {
        let mut events = Vec::new();
        while let Some(step) = self.itinerary.front().copied() {
            if step.completes_at() > until {
                break;
            }
            self.itinerary.pop_front();
            match step {
                ItineraryStep::Travel { to, length_m, .. } => {
                    self.location = to;
                    events.push(FleetEvent::Drove { length_m, load: self.onboard_load() });
                }
                ItineraryStep::Wait { from, until: wait_until, .. } => {
                    self.pending_wait += wait_until - from;
                }
                ItineraryStep::Pickup { order, at } => {
                    if let Some(c) = self.carried.iter_mut().find(|c| c.order.id == order) {
                        c.picked_up = true;
                    }
                    events.push(FleetEvent::PickedUp { order, at, waited: self.pending_wait });
                    self.pending_wait = Duration::ZERO;
                }
                ItineraryStep::Dropoff { order, at } => {
                    self.carried.retain(|c| c.order.id != order);
                    events.push(FleetEvent::Delivered { order, at });
                }
            }
        }
        events
    }
}

impl Codec for ItineraryStep {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            ItineraryStep::Travel { to, arrive, length_m } => {
                out.push(0);
                to.encode(out);
                arrive.encode(out);
                length_m.encode(out);
            }
            ItineraryStep::Wait { from, until } => {
                out.push(1);
                from.encode(out);
                until.encode(out);
            }
            ItineraryStep::Pickup { order, at } => {
                out.push(2);
                order.encode(out);
                at.encode(out);
            }
            ItineraryStep::Dropoff { order, at } => {
                out.push(3);
                order.encode(out);
                at.encode(out);
            }
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => {
                let to = NodeId::decode(reader)?;
                let arrive = TimePoint::decode(reader)?;
                let length_m = f64::decode(reader)?;
                if !(length_m.is_finite() && length_m >= 0.0) {
                    return Err(DecodeError::Invalid(format!(
                        "travel length must be finite and non-negative, got {length_m}"
                    )));
                }
                Ok(ItineraryStep::Travel { to, arrive, length_m })
            }
            1 => Ok(ItineraryStep::Wait {
                from: TimePoint::decode(reader)?,
                until: TimePoint::decode(reader)?,
            }),
            2 => Ok(ItineraryStep::Pickup {
                order: OrderId::decode(reader)?,
                at: TimePoint::decode(reader)?,
            }),
            3 => Ok(ItineraryStep::Dropoff {
                order: OrderId::decode(reader)?,
                at: TimePoint::decode(reader)?,
            }),
            tag => Err(DecodeError::Invalid(format!("unknown ItineraryStep tag {tag}"))),
        }
    }
}

/// The full runtime state round-trips, including the private edge-level
/// itinerary and the pending restaurant wait — a restored vehicle resumes
/// mid-edge exactly where the checkpointed one stopped.
impl Codec for VehicleState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.location.encode(out);
        self.carried.encode(out);
        self.on_shift.encode(out);
        self.itinerary.len().encode(out);
        for step in &self.itinerary {
            step.encode(out);
        }
        self.pending_wait.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let id = VehicleId::decode(reader)?;
        let location = NodeId::decode(reader)?;
        let carried = Vec::<PlannedOrder>::decode(reader)?;
        let on_shift = bool::decode(reader)?;
        let declared = u64::decode(reader)?;
        let steps = reader.check_len(declared)?;
        let mut itinerary = VecDeque::with_capacity(steps);
        for _ in 0..steps {
            itinerary.push_back(ItineraryStep::decode(reader)?);
        }
        let pending_wait = Duration::decode(reader)?;
        Ok(VehicleState { id, location, carried, on_shift, itinerary, pending_wait })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::route::plan_optimal_route;
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::{CongestionProfile, GeoPoint, RoadClass, RoadNetworkBuilder};

    fn setup() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(6, 6).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn order(id: u64, r: NodeId, c: NodeId, t: TimePoint, prep_mins: f64) -> Order {
        Order::new(OrderId(id), r, c, t, 1, Duration::from_mins(prep_mins))
    }

    fn install_single(
        vehicle: &mut VehicleState,
        o: Order,
        now: TimePoint,
        engine: &ShortestPathEngine,
    ) {
        vehicle.carried = vec![PlannedOrder::pending(o)];
        let route = plan_optimal_route(vehicle.location, now, &vehicle.carried, engine).unwrap();
        vehicle.install_plan(&route.plan, now, engine);
    }

    #[test]
    fn idle_vehicle_does_nothing() {
        let (_, b) = setup();
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        assert!(v.is_idle());
        assert!(v.advance(TimePoint::from_hms(23, 0, 0)).is_empty());
        assert_eq!(v.heading(), None);
    }

    #[test]
    fn vehicle_completes_a_single_delivery() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        let o = order(1, b.node_at(0, 2), b.node_at(3, 2), t, 2.0);
        install_single(&mut v, o, t, &engine);
        assert!(!v.is_idle());
        assert!(v.heading().is_some());

        // Advance far enough for the whole plan to finish.
        let events = v.advance(TimePoint::from_hms(13, 0, 0));
        assert!(v.is_idle());
        let picked = events
            .iter()
            .any(|e| matches!(e, FleetEvent::PickedUp { order, .. } if *order == o.id));
        let delivered = events
            .iter()
            .any(|e| matches!(e, FleetEvent::Delivered { order, .. } if *order == o.id));
        assert!(picked && delivered);
        assert_eq!(v.location, o.customer);
        // Drove events cover first mile (2 edges) + last mile (3 edges).
        let edges = events.iter().filter(|e| matches!(e, FleetEvent::Drove { .. })).count();
        assert_eq!(edges, 5);
    }

    #[test]
    fn advancing_in_small_steps_matches_the_plan() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        let o = order(1, b.node_at(0, 3), b.node_at(5, 3), t, 1.0);
        install_single(&mut v, o, t, &engine);
        let deadline = v.itinerary.back().map(ItineraryStep::completes_at).unwrap();

        let mut step_time = t;
        let mut delivered_at = None;
        while step_time < deadline {
            step_time += Duration::from_mins(1.0);
            for event in v.advance(step_time) {
                if let FleetEvent::Delivered { at, .. } = event {
                    delivered_at = Some(at);
                }
            }
        }
        assert!(delivered_at.is_some());
        assert!(v.is_idle());
        assert_eq!(v.location, o.customer);
    }

    #[test]
    fn waiting_is_attributed_to_the_pickup() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 1));
        // Restaurant one edge away but prep takes 10 minutes ⇒ a long wait.
        let o = order(1, b.node_at(0, 0), b.node_at(2, 0), t, 10.0);
        install_single(&mut v, o, t, &engine);
        let events = v.advance(TimePoint::from_hms(12, 30, 0));
        let waited = events
            .iter()
            .find_map(|e| match e {
                FleetEvent::PickedUp { waited, .. } => Some(*waited),
                _ => None,
            })
            .unwrap();
        let edge_secs = 250.0 / foodmatch_roadnet::RoadClass::Local.free_flow_speed_mps();
        assert!((waited.as_secs_f64() - (600.0 - edge_secs)).abs() < 1e-6);
    }

    #[test]
    fn snapshot_reflects_reshuffling_policy() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        let o = order(1, b.node_at(0, 3), b.node_at(4, 3), t, 5.0);
        install_single(&mut v, o, t, &engine);

        // Before pickup: reshuffle ⇒ order is not committed; no reshuffle ⇒ it is.
        assert_eq!(v.snapshot(true).committed.len(), 0);
        assert_eq!(v.snapshot(false).committed.len(), 1);
        assert_eq!(v.unpicked_orders().len(), 1);

        // After the pickup the order is committed either way.
        v.advance(TimePoint::from_hms(12, 20, 0));
        if v.carried.iter().any(|c| c.picked_up) {
            assert_eq!(v.snapshot(true).committed.len(), 1);
            assert!(v.unpicked_orders().is_empty());
        }
    }

    #[test]
    fn remove_unpicked_only_touches_unpicked_orders() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        let o = order(1, b.node_at(0, 2), b.node_at(3, 2), t, 1.0);
        install_single(&mut v, o, t, &engine);
        assert!(v.remove_unpicked(o.id));
        assert!(v.carried.is_empty());
        assert!(!v.remove_unpicked(o.id));
    }

    #[test]
    fn the_fleet_drives_the_parallel_edge_the_oracle_priced() {
        // Two streets from a to c: a 900 m local road, added first, and an
        // 800 m arterial the oracle's path takes. The vehicle must reach the
        // restaurant at c when the oracle said it would, not drive the first
        // edge that happens to lead there.
        let mut builder = RoadNetworkBuilder::new();
        let a = builder.add_node(GeoPoint::new(0.0, 0.0));
        let c = builder.add_node(GeoPoint::new(0.0, 0.008));
        builder.add_edge(a, c, 900.0, RoadClass::Local);
        builder.add_edge(a, c, 800.0, RoadClass::Arterial);
        builder.add_edge(c, a, 900.0, RoadClass::Local);
        let engine = ShortestPathEngine::cached(builder.build());
        let t = TimePoint::from_hms(3, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), a);
        install_single(&mut v, order(1, c, a, t, 0.0), t, &engine);

        let events = v.advance(TimePoint::from_hms(4, 0, 0));
        let oracle = engine.travel_time(a, c, t).unwrap();
        assert!(
            (oracle.as_secs_f64() - 800.0 / RoadClass::Arterial.free_flow_speed_mps()).abs() < 1e-9
        );
        let picked_at = events.iter().find_map(|e| match e {
            FleetEvent::PickedUp { at, .. } => Some(*at),
            _ => None,
        });
        assert_eq!(picked_at, Some(t + oracle));
        let driven: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                FleetEvent::Drove { length_m, .. } => Some(*length_m),
                _ => None,
            })
            .collect();
        assert_eq!(driven, [800.0, 900.0]);
    }

    #[test]
    fn mid_edge_positions_snap_to_the_previous_node() {
        let (engine, b) = setup();
        let t = TimePoint::from_hms(12, 0, 0);
        let mut v = VehicleState::new(VehicleId(0), b.node_at(0, 0));
        let o = order(1, b.node_at(0, 5), b.node_at(5, 5), t, 0.5);
        install_single(&mut v, o, t, &engine);
        // Half an edge's travel time: the vehicle must still report node (0,0)
        // and head towards (0,1).
        let half_edge = Duration::from_secs_f64(250.0 / 6.9 / 2.0);
        v.advance(t + half_edge);
        assert_eq!(v.location, b.node_at(0, 0));
        assert_eq!(v.heading(), Some(b.node_at(0, 1)));
    }
}
