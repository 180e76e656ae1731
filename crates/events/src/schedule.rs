//! Deterministic replay of an event stream.
//!
//! [`EventSchedule`] owns the sorted stream and the set of *currently
//! active* traffic disruptions. The simulator calls
//! [`EventSchedule::advance_to`] once per accumulation window; the call
//! returns the non-traffic events that fired (for the dispatcher to apply)
//! and whether the active traffic set changed (in which case the simulator
//! renders a fresh overlay via [`EventSchedule::overlay`] and installs it on
//! the engine).
//!
//! Replay is deterministic: events are ordered by timestamp with ties broken
//! by their position in the input stream, and no wall-clock or randomness is
//! involved.

use crate::event::{DisruptionEvent, EventKind, TrafficDisruption};
use foodmatch_core::codec::{ByteReader, Codec, DecodeError};
use foodmatch_roadnet::{EdgeId, RoadNetwork, TimePoint, TrafficOverlay};

/// The outcome of advancing a schedule to a window boundary.
#[derive(Clone, Debug, Default)]
pub struct WindowEvents {
    /// Non-traffic events that fired, in deterministic stream order.
    pub fired: Vec<DisruptionEvent>,
    /// True when the set of active traffic disruptions changed (a disruption
    /// started or cleared), i.e. when the engine's overlay must be replaced.
    pub traffic_changed: bool,
}

/// A sorted stream of [`DisruptionEvent`]s plus the active-traffic state
/// machine.
#[derive(Clone, Debug)]
pub struct EventSchedule {
    /// All events, sorted by `(at, input position)`.
    events: Vec<DisruptionEvent>,
    /// Index of the next event to fire.
    cursor: usize,
    /// Traffic disruptions currently in force.
    active: Vec<TrafficDisruption>,
}

impl EventSchedule {
    /// Creates a schedule from events in any order (sorted internally; ties
    /// keep their input order, so generation order is replay order).
    pub fn new(mut events: Vec<DisruptionEvent>) -> Self {
        // Stable sort: ties keep their input order.
        events.sort_by_key(|e| e.at);
        EventSchedule { events, cursor: 0, active: Vec::new() }
    }

    /// Streams one more event into the schedule, preserving the replay
    /// order: the event is inserted after every not-yet-fired event with an
    /// earlier-or-equal timestamp, so pushing events one by one yields
    /// exactly the order [`EventSchedule::new`] produces for the same
    /// stream. An event timestamped before the last
    /// [`advance_to`](Self::advance_to) cannot fire in the past; it is
    /// queued at the replay cursor and fires on the next advance.
    pub fn push(&mut self, event: DisruptionEvent) {
        let offset = self.events[self.cursor..].partition_point(|e| e.at <= event.at);
        self.events.insert(self.cursor + offset, event);
    }

    /// Total number of events in the stream (fired or not).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the stream holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full sorted stream.
    pub fn events(&self) -> &[DisruptionEvent] {
        &self.events
    }

    /// True while at least one traffic disruption is in force.
    pub fn traffic_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// Advances the schedule to `now`: fires every event with `at <= now`
    /// (traffic events are absorbed into the active set, everything else is
    /// returned for the caller to apply) and expires active disruptions with
    /// `until <= now`.
    pub fn advance_to(&mut self, now: TimePoint) -> WindowEvents {
        let mut out = WindowEvents::default();
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            let event = self.events[self.cursor];
            self.cursor += 1;
            match event.kind {
                EventKind::Traffic(disruption) => {
                    // A disruption whose whole life fits inside one window
                    // never becomes visible.
                    if disruption.until > now {
                        self.active.push(disruption);
                        out.traffic_changed = true;
                    }
                }
                _ => out.fired.push(event),
            }
        }
        let before = self.active.len();
        self.active.retain(|d| d.until > now);
        if self.active.len() != before {
            out.traffic_changed = true;
        }
        out
    }

    /// Renders the active traffic set as a [`TrafficOverlay`] over `network`
    /// from scratch — `O(active × (V + E))`, paid only when the active set
    /// changed.
    ///
    /// A localized disruption affects every edge whose *both* endpoints lie
    /// within `radius_m` (straight-line) of its centre; a city-wide one
    /// affects every edge. Overlapping disruptions combine by taking the
    /// worst factor per edge.
    pub fn overlay(&self, network: &RoadNetwork) -> TrafficOverlay {
        let mut overlay = TrafficOverlay::new();
        for disruption in &self.active {
            for eid in disruption_footprint(network, disruption) {
                overlay.slow_edge(eid, disruption.factor);
            }
        }
        overlay
    }
}

/// The schedule's state is `(events, cursor, active)`, all of it encoded.
impl Codec for EventSchedule {
    fn encode(&self, out: &mut Vec<u8>) {
        self.events.encode(out);
        self.cursor.encode(out);
        self.active.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let events = Vec::<DisruptionEvent>::decode(reader)?;
        let cursor = usize::decode(reader)?;
        let active = Vec::<TrafficDisruption>::decode(reader)?;
        if cursor > events.len() {
            return Err(DecodeError::Invalid(format!(
                "schedule cursor {cursor} beyond the {} events in the stream",
                events.len()
            )));
        }
        if events.windows(2).any(|pair| pair[0].at > pair[1].at) {
            return Err(DecodeError::Invalid(
                "schedule events are not sorted by timestamp".to_string(),
            ));
        }
        Ok(EventSchedule { events, cursor, active })
    }
}

/// The edges a single disruption perturbs: every edge for a city-wide
/// disruption, and every edge with *both* endpoints within `radius_m` of the
/// centre for a localized one — `O(V + E)`.
fn disruption_footprint(network: &RoadNetwork, disruption: &TrafficDisruption) -> Vec<EdgeId> {
    match disruption.center {
        None => network.edge_ids().collect(),
        Some(center) => {
            let origin = network.position(center);
            let within: Vec<bool> = network
                .node_ids()
                .map(|n| network.position(n).distance_m(origin) <= disruption.radius_m)
                .collect();
            network
                .edge_ids()
                .filter(|&eid| {
                    let e = network.edge(eid);
                    within[e.from.index()] && within[e.to.index()]
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DisruptionCause;
    use foodmatch_core::OrderId;
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::NodeId;

    fn t(h: u32, m: u32) -> TimePoint {
        TimePoint::from_hms(h, m, 0)
    }

    #[test]
    fn pushing_one_by_one_matches_batch_construction() {
        let stream = vec![
            DisruptionEvent::new(t(12, 10), EventKind::OrderCancelled { order: OrderId(2) }),
            DisruptionEvent::new(t(12, 5), EventKind::OrderCancelled { order: OrderId(1) }),
            DisruptionEvent::new(t(12, 10), EventKind::OrderCancelled { order: OrderId(3) }),
            DisruptionEvent::new(t(12, 7), EventKind::OrderCancelled { order: OrderId(4) }),
        ];
        let batch = EventSchedule::new(stream.clone());
        let mut streamed = EventSchedule::new(Vec::new());
        for event in stream {
            streamed.push(event);
        }
        assert_eq!(batch.events(), streamed.events());
    }

    #[test]
    fn pushing_into_the_past_queues_at_the_replay_cursor() {
        let mut schedule = EventSchedule::new(vec![DisruptionEvent::new(
            t(12, 20),
            EventKind::OrderCancelled { order: OrderId(1) },
        )]);
        assert!(schedule.advance_to(t(12, 10)).fired.is_empty());
        // A late ingest timestamped before the cursor fires next advance,
        // ahead of the later-stamped order-1 event.
        schedule
            .push(DisruptionEvent::new(t(12, 0), EventKind::OrderCancelled { order: OrderId(9) }));
        let fired = schedule.advance_to(t(12, 30)).fired;
        let ids: Vec<u64> = fired
            .iter()
            .map(|e| match e.kind {
                EventKind::OrderCancelled { order } => order.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![9, 1]);
    }

    #[test]
    fn events_fire_in_timestamp_order_with_stable_ties() {
        let events = vec![
            DisruptionEvent::new(t(12, 10), EventKind::OrderCancelled { order: OrderId(2) }),
            DisruptionEvent::new(t(12, 5), EventKind::OrderCancelled { order: OrderId(1) }),
            DisruptionEvent::new(t(12, 10), EventKind::OrderCancelled { order: OrderId(3) }),
        ];
        let mut schedule = EventSchedule::new(events);
        assert_eq!(schedule.len(), 3);
        let first = schedule.advance_to(t(12, 7));
        assert_eq!(first.fired.len(), 1);
        let second = schedule.advance_to(t(12, 30));
        let ids: Vec<u64> = second
            .fired
            .iter()
            .map(|e| match e.kind {
                EventKind::OrderCancelled { order } => order.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![2, 3], "equal timestamps keep input order");
        // Draining again yields nothing.
        assert!(schedule.advance_to(t(23, 0)).fired.is_empty());
    }

    #[test]
    fn traffic_lifecycle_toggles_the_changed_flag() {
        let incident = TrafficDisruption::localized(
            DisruptionCause::Incident,
            NodeId(0),
            1_000.0,
            2.0,
            t(12, 45),
        );
        let mut schedule =
            EventSchedule::new(vec![DisruptionEvent::new(t(12, 10), EventKind::Traffic(incident))]);
        assert!(!schedule.traffic_active());
        let before = schedule.advance_to(t(12, 5));
        assert!(!before.traffic_changed);
        let start = schedule.advance_to(t(12, 15));
        assert!(start.traffic_changed && schedule.traffic_active());
        let steady = schedule.advance_to(t(12, 30));
        assert!(!steady.traffic_changed, "no change while the incident persists");
        let end = schedule.advance_to(t(12, 50));
        assert!(end.traffic_changed && !schedule.traffic_active());
    }

    #[test]
    fn disruption_contained_in_one_window_is_invisible() {
        let blip = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.5, t(12, 2));
        let mut schedule =
            EventSchedule::new(vec![DisruptionEvent::new(t(12, 1), EventKind::Traffic(blip))]);
        let out = schedule.advance_to(t(12, 3));
        assert!(!out.traffic_changed);
        assert!(!schedule.traffic_active());
    }

    #[test]
    fn overlay_covers_the_neighbourhood_of_localized_disruptions() {
        let b = GridCityBuilder::new(6, 6).spacing_m(250.0);
        let net = b.build();
        let center = b.node_at(0, 0);
        let incident =
            TrafficDisruption::localized(DisruptionCause::Incident, center, 300.0, 2.0, t(13, 0));
        let mut schedule =
            EventSchedule::new(vec![DisruptionEvent::new(t(12, 0), EventKind::Traffic(incident))]);
        schedule.advance_to(t(12, 1));
        let overlay = schedule.overlay(&net);
        assert!(!overlay.is_empty());
        assert!(overlay.len() < net.edge_count(), "a 300 m radius must stay local");
        // Every perturbed edge has both endpoints near the centre.
        let origin = net.position(center);
        for eid in net.edge_ids() {
            if overlay.multiplier(eid) > 1.0 {
                let e = net.edge(eid);
                assert!(net.position(e.from).distance_m(origin) <= 300.0);
                assert!(net.position(e.to).distance_m(origin) <= 300.0);
            }
        }
    }

    #[test]
    fn decoded_schedule_resumes_mid_stream_with_equal_overlays() {
        let net = GridCityBuilder::new(4, 4).build();
        let rain = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.4, t(13, 30));
        let mut schedule = EventSchedule::new(vec![
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(rain)),
            DisruptionEvent::new(t(12, 20), EventKind::OrderCancelled { order: OrderId(1) }),
            DisruptionEvent::new(t(12, 40), EventKind::OrderCancelled { order: OrderId(2) }),
        ]);
        // Advance mid-stream: rain active, one cancellation fired.
        schedule.advance_to(t(12, 25));

        let mut restored = EventSchedule::from_bytes(&schedule.to_bytes()).unwrap();
        assert_eq!(restored.events(), schedule.events());
        assert_eq!(restored.active, schedule.active);
        assert_eq!(restored.overlay(&net), schedule.overlay(&net));
        // Both fire the same remaining suffix.
        let a = schedule.advance_to(t(13, 0)).fired;
        let b = restored.advance_to(t(13, 0)).fired;
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn corrupt_schedule_bytes_yield_typed_errors() {
        let schedule = EventSchedule::new(vec![DisruptionEvent::new(
            t(12, 0),
            EventKind::OrderCancelled { order: OrderId(1) },
        )]);
        let bytes = schedule.to_bytes();
        // A cursor beyond the stream.
        let mut wrong = Vec::new();
        schedule.events().to_vec().encode(&mut wrong);
        5usize.encode(&mut wrong);
        Vec::<TrafficDisruption>::new().encode(&mut wrong);
        assert!(matches!(EventSchedule::from_bytes(&wrong), Err(DecodeError::Invalid(_))));
        // Truncation anywhere is an EOF, never a panic.
        for cut in 0..bytes.len() {
            assert!(EventSchedule::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn city_wide_disruptions_cover_every_edge_and_combine_by_max() {
        let net = GridCityBuilder::new(4, 4).build();
        let rain = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.4, t(14, 0));
        let incident = TrafficDisruption::localized(
            DisruptionCause::Incident,
            NodeId(0),
            10_000.0,
            2.5,
            t(13, 0),
        );
        let mut schedule = EventSchedule::new(vec![
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(rain)),
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(incident)),
        ]);
        schedule.advance_to(t(12, 5));
        assert_eq!(schedule.active.len(), 2);
        let overlay = schedule.overlay(&net);
        assert_eq!(overlay.len(), net.edge_count());
        // The incident blankets the whole grid, so max-combination wins
        // everywhere.
        for eid in net.edge_ids() {
            assert_eq!(overlay.multiplier(eid), 2.5);
        }
        // Once the incident expires, every edge falls back to the rain alone;
        // once the rain does too, nothing is slowed.
        assert!(schedule.advance_to(t(13, 30)).traffic_changed);
        let overlay = schedule.overlay(&net);
        assert_eq!(overlay.len(), net.edge_count());
        for eid in net.edge_ids() {
            assert_eq!(overlay.multiplier(eid), 1.4);
        }
        assert!(schedule.advance_to(t(14, 5)).traffic_changed);
        assert!(schedule.overlay(&net).is_empty());
    }
}
