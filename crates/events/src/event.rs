//! The event algebra: everything that can disturb a running simulation.

use foodmatch_core::codec::{ByteReader, Codec, DecodeError};
use foodmatch_core::{OrderId, VehicleId};
use foodmatch_roadnet::{Duration, NodeId, TimePoint};

/// Why a stretch of road got slower. Only used for reporting — the overlay
/// semantics are identical for every cause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DisruptionCause {
    /// A traffic incident (accident, road works) around a location.
    Incident,
    /// Weather — typically city-wide and milder than an incident.
    Rain,
    /// An unexplained localized slowdown (event crowd, parade, …).
    Slowdown,
}

impl DisruptionCause {
    /// Human-readable label used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            DisruptionCause::Incident => "incident",
            DisruptionCause::Rain => "rain",
            DisruptionCause::Slowdown => "slowdown",
        }
    }
}

/// A live edge-speed perturbation with a lifetime.
///
/// While active, every affected edge's travel time is multiplied by
/// `factor` (≥ 1 — disruptions make roads slower, never faster; this is what
/// lets the engine answer perturbed queries with a *bounded* overlay search
/// instead of an index rebuild).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrafficDisruption {
    /// What kind of disruption this is (reporting only).
    pub cause: DisruptionCause,
    /// Epicentre of the disruption; `None` means city-wide (rain surge).
    pub center: Option<NodeId>,
    /// Radius of the affected node neighbourhood around `center`, in meters
    /// (straight-line). Ignored for city-wide disruptions.
    pub radius_m: f64,
    /// Travel-time multiplier applied to affected edges.
    pub factor: f64,
    /// When the disruption clears.
    pub until: TimePoint,
}

impl TrafficDisruption {
    /// Creates a localized disruption around `center`.
    ///
    /// # Panics
    /// Panics if `factor < 1` or `radius_m` is not positive and finite.
    pub fn localized(
        cause: DisruptionCause,
        center: NodeId,
        radius_m: f64,
        factor: f64,
        until: TimePoint,
    ) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "disruption factor must be ≥ 1");
        assert!(radius_m.is_finite() && radius_m > 0.0, "disruption radius must be positive");
        TrafficDisruption { cause, center: Some(center), radius_m, factor, until }
    }

    /// Creates a city-wide disruption (e.g. a rain surge).
    ///
    /// # Panics
    /// Panics if `factor < 1`.
    pub fn city_wide(cause: DisruptionCause, factor: f64, until: TimePoint) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "disruption factor must be ≥ 1");
        TrafficDisruption { cause, center: None, radius_m: f64::INFINITY, factor, until }
    }
}

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A stretch of road network slows down until the disruption clears.
    Traffic(TrafficDisruption),
    /// The customer cancelled the order. Only effective before pickup: once
    /// the food is on a vehicle the platform completes the delivery.
    OrderCancelled {
        /// The cancelled order.
        order: OrderId,
    },
    /// The restaurant is running late: the order's preparation time grows by
    /// `extra`. Only effective before pickup.
    PrepDelay {
        /// The delayed order.
        order: OrderId,
        /// How much later the food will be ready.
        extra: Duration,
    },
    /// The driver ends their shift: the vehicle stops being offered to the
    /// dispatcher, its not-yet-picked-up orders re-enter the pool, and it
    /// finishes only the deliveries already on board.
    VehicleOffShift {
        /// The departing vehicle.
        vehicle: VehicleId,
    },
    /// A driver starts a shift at `location` (a brand-new vehicle id joins
    /// the fleet; a known id returns to duty at its current position).
    VehicleOnShift {
        /// The arriving vehicle.
        vehicle: VehicleId,
        /// Where the new vehicle enters the network (ignored for returning
        /// vehicles, which resume wherever they are).
        location: NodeId,
    },
}

/// Where an event lands when a city is partitioned into dispatch zones —
/// the routing classification a sharded dispatcher (one service per zone)
/// uses to decide which shards must see the event.
///
/// The scope is derived purely from the event payload; mapping it onto
/// concrete zones (bounding regions, order/vehicle ownership) is the
/// router's job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventScope {
    /// Affects the whole city (e.g. a rain surge): broadcast to every zone.
    CityWide,
    /// Affects a bounded neighbourhood around `center`: deliver to every
    /// zone whose region the circle of `radius_m` meters touches.
    Localized {
        /// Epicentre of the disruption.
        center: NodeId,
        /// Straight-line radius of the affected neighbourhood, in meters.
        radius_m: f64,
    },
    /// Targets a single order (cancellation, prep delay): deliver to the
    /// zone that owns the order.
    Order(OrderId),
    /// Targets a single vehicle (shift churn): deliver to the zone that owns
    /// the vehicle. `location` is where the event introduces the vehicle
    /// when it carries one (on-shift), letting a router place a brand-new
    /// vehicle by position.
    Vehicle {
        /// The targeted vehicle.
        vehicle: VehicleId,
        /// Where an on-shift event (re)introduces the vehicle, if anywhere.
        location: Option<NodeId>,
    },
}

/// One time-stamped simulation event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DisruptionEvent {
    /// When the event fires. The simulator applies events at the boundary of
    /// the accumulation window containing them.
    pub at: TimePoint,
    /// What happens.
    pub kind: EventKind,
}

impl DisruptionEvent {
    /// Creates an event.
    pub fn new(at: TimePoint, kind: EventKind) -> Self {
        DisruptionEvent { at, kind }
    }

    /// The zone-routing classification of this event (see [`EventScope`]).
    pub fn scope(&self) -> EventScope {
        match self.kind {
            EventKind::Traffic(disruption) => match disruption.center {
                None => EventScope::CityWide,
                Some(center) => EventScope::Localized { center, radius_m: disruption.radius_m },
            },
            EventKind::OrderCancelled { order } | EventKind::PrepDelay { order, .. } => {
                EventScope::Order(order)
            }
            EventKind::VehicleOffShift { vehicle } => {
                EventScope::Vehicle { vehicle, location: None }
            }
            EventKind::VehicleOnShift { vehicle, location } => {
                EventScope::Vehicle { vehicle, location: Some(location) }
            }
        }
    }
}

impl Codec for DisruptionCause {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DisruptionCause::Incident => 0,
            DisruptionCause::Rain => 1,
            DisruptionCause::Slowdown => 2,
        });
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => Ok(DisruptionCause::Incident),
            1 => Ok(DisruptionCause::Rain),
            2 => Ok(DisruptionCause::Slowdown),
            tag => Err(DecodeError::Invalid(format!("unknown DisruptionCause tag {tag}"))),
        }
    }
}

impl Codec for TrafficDisruption {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cause.encode(out);
        self.center.encode(out);
        self.radius_m.encode(out);
        self.factor.encode(out);
        self.until.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let cause = DisruptionCause::decode(reader)?;
        let center = Option::<NodeId>::decode(reader)?;
        let radius_m = f64::decode(reader)?;
        let factor = f64::decode(reader)?;
        let until = TimePoint::decode(reader)?;
        // The same invariants `localized`/`city_wide` assert, as typed errors:
        // factor ≥ 1 always; a localized disruption needs a real radius (a
        // city-wide one carries +∞, which is fine — it is never compared).
        if !factor.is_finite() || factor < 1.0 {
            return Err(DecodeError::Invalid(format!(
                "TrafficDisruption factor must be finite and ≥ 1, got {factor}"
            )));
        }
        if center.is_some() && !(radius_m.is_finite() && radius_m > 0.0) {
            return Err(DecodeError::Invalid(format!(
                "localized TrafficDisruption radius must be positive and finite, got {radius_m}"
            )));
        }
        if center.is_none() && radius_m.is_nan() {
            return Err(DecodeError::Invalid(
                "city-wide TrafficDisruption radius must not be NaN".to_string(),
            ));
        }
        Ok(TrafficDisruption { cause, center, radius_m, factor, until })
    }
}

impl Codec for EventKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EventKind::Traffic(disruption) => {
                out.push(0);
                disruption.encode(out);
            }
            EventKind::OrderCancelled { order } => {
                out.push(1);
                order.encode(out);
            }
            EventKind::PrepDelay { order, extra } => {
                out.push(2);
                order.encode(out);
                extra.encode(out);
            }
            EventKind::VehicleOffShift { vehicle } => {
                out.push(3);
                vehicle.encode(out);
            }
            EventKind::VehicleOnShift { vehicle, location } => {
                out.push(4);
                vehicle.encode(out);
                location.encode(out);
            }
        }
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match reader.take(1)?[0] {
            0 => Ok(EventKind::Traffic(TrafficDisruption::decode(reader)?)),
            1 => Ok(EventKind::OrderCancelled { order: OrderId::decode(reader)? }),
            2 => Ok(EventKind::PrepDelay {
                order: OrderId::decode(reader)?,
                extra: Duration::decode(reader)?,
            }),
            3 => Ok(EventKind::VehicleOffShift { vehicle: VehicleId::decode(reader)? }),
            4 => Ok(EventKind::VehicleOnShift {
                vehicle: VehicleId::decode(reader)?,
                location: NodeId::decode(reader)?,
            }),
            tag => Err(DecodeError::Invalid(format!("unknown EventKind tag {tag}"))),
        }
    }
}

impl Codec for DisruptionEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.kind.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(DisruptionEvent { at: TimePoint::decode(reader)?, kind: EventKind::decode(reader)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate_factors() {
        let until = TimePoint::from_hms(13, 0, 0);
        let d =
            TrafficDisruption::localized(DisruptionCause::Incident, NodeId(3), 500.0, 2.0, until);
        assert_eq!(d.center, Some(NodeId(3)));
        let rain = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.4, until);
        assert_eq!(rain.center, None);
        assert_eq!(rain.cause.name(), "rain");
    }

    #[test]
    #[should_panic(expected = "factor must be ≥ 1")]
    fn speedups_are_rejected() {
        let _ =
            TrafficDisruption::city_wide(DisruptionCause::Rain, 0.9, TimePoint::from_hms(13, 0, 0));
    }

    #[test]
    fn scope_classifies_every_event_kind() {
        let t = TimePoint::from_hms(12, 0, 0);
        let rain = DisruptionEvent::new(
            t,
            EventKind::Traffic(TrafficDisruption::city_wide(DisruptionCause::Rain, 1.3, t)),
        );
        assert_eq!(rain.scope(), EventScope::CityWide);

        let incident = DisruptionEvent::new(
            t,
            EventKind::Traffic(TrafficDisruption::localized(
                DisruptionCause::Incident,
                NodeId(7),
                800.0,
                2.0,
                t,
            )),
        );
        assert_eq!(incident.scope(), EventScope::Localized { center: NodeId(7), radius_m: 800.0 });

        let cancel = DisruptionEvent::new(t, EventKind::OrderCancelled { order: OrderId(4) });
        assert_eq!(cancel.scope(), EventScope::Order(OrderId(4)));
        let delay = DisruptionEvent::new(
            t,
            EventKind::PrepDelay { order: OrderId(5), extra: Duration::from_mins(5.0) },
        );
        assert_eq!(delay.scope(), EventScope::Order(OrderId(5)));

        let off = DisruptionEvent::new(t, EventKind::VehicleOffShift { vehicle: VehicleId(2) });
        assert_eq!(off.scope(), EventScope::Vehicle { vehicle: VehicleId(2), location: None });
        let on = DisruptionEvent::new(
            t,
            EventKind::VehicleOnShift { vehicle: VehicleId(3), location: NodeId(9) },
        );
        assert_eq!(
            on.scope(),
            EventScope::Vehicle { vehicle: VehicleId(3), location: Some(NodeId(9)) }
        );
    }

    #[test]
    fn every_event_kind_roundtrips_through_the_codec() {
        let t = TimePoint::from_hms(12, 0, 0);
        let events = [
            DisruptionEvent::new(
                t,
                EventKind::Traffic(TrafficDisruption::city_wide(DisruptionCause::Rain, 1.3, t)),
            ),
            DisruptionEvent::new(
                t,
                EventKind::Traffic(TrafficDisruption::localized(
                    DisruptionCause::Incident,
                    NodeId(7),
                    800.0,
                    2.0,
                    t,
                )),
            ),
            DisruptionEvent::new(t, EventKind::OrderCancelled { order: OrderId(4) }),
            DisruptionEvent::new(
                t,
                EventKind::PrepDelay { order: OrderId(5), extra: Duration::from_mins(5.0) },
            ),
            DisruptionEvent::new(t, EventKind::VehicleOffShift { vehicle: VehicleId(2) }),
            DisruptionEvent::new(
                t,
                EventKind::VehicleOnShift { vehicle: VehicleId(3), location: NodeId(9) },
            ),
        ];
        for event in events {
            let bytes = event.to_bytes();
            assert_eq!(DisruptionEvent::from_bytes(&bytes).unwrap(), event);
        }
    }

    #[test]
    fn codec_rejects_invalid_disruptions_with_typed_errors() {
        let t = TimePoint::from_hms(12, 0, 0);
        // A factor below 1 on the wire (constructed bytes, not a value the
        // constructors would admit).
        let mut bytes = Vec::new();
        DisruptionCause::Rain.encode(&mut bytes);
        Option::<NodeId>::None.encode(&mut bytes);
        f64::INFINITY.encode(&mut bytes);
        0.5f64.encode(&mut bytes);
        t.encode(&mut bytes);
        assert!(matches!(TrafficDisruption::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
        // An unknown event tag.
        assert!(matches!(EventKind::from_bytes(&[9]), Err(DecodeError::Invalid(_))));
    }
}
