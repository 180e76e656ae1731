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
use std::collections::{BTreeMap, BTreeSet};

/// The outcome of advancing a schedule to a window boundary.
#[derive(Clone, Debug, Default)]
pub struct WindowEvents {
    /// Non-traffic events that fired, in deterministic stream order.
    pub fired: Vec<DisruptionEvent>,
    /// True when the set of active traffic disruptions changed (a disruption
    /// started or cleared), i.e. when the engine's overlay must be replaced.
    pub traffic_changed: bool,
}

/// One disruption's rendered footprint, cached for incremental updates.
#[derive(Clone, Debug)]
struct RenderedDisruption {
    /// The disruption this footprint belongs to.
    disruption: TrafficDisruption,
    /// Every edge the disruption perturbs (its factor applies to all).
    edges: Vec<EdgeId>,
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
    /// The disruptions whose footprints are folded into `edge_mult`, in the
    /// order they were active at the last [`render_overlay`](Self::render_overlay).
    rendered: Vec<RenderedDisruption>,
    /// Running per-edge worst multiplier of everything in `rendered`; ordered,
    /// so the overlay is rendered from it in edge-id order.
    edge_mult: BTreeMap<EdgeId, f64>,
}

impl EventSchedule {
    /// Creates a schedule from events in any order (sorted internally; ties
    /// keep their input order, so generation order is replay order).
    pub fn new(mut events: Vec<DisruptionEvent>) -> Self {
        // Stable sort: ties keep their input order.
        events.sort_by_key(|e| e.at);
        EventSchedule {
            events,
            cursor: 0,
            active: Vec::new(),
            rendered: Vec::new(),
            edge_mult: BTreeMap::new(),
        }
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

    /// The traffic disruptions currently in force.
    pub fn active_traffic(&self) -> &[TrafficDisruption] {
        &self.active
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
    /// by rebuilding from scratch — `O(active × (V + E))`.
    ///
    /// A localized disruption affects every edge whose *both* endpoints lie
    /// within `radius_m` (straight-line) of its centre; a city-wide one
    /// affects every edge. Overlapping disruptions combine by taking the
    /// worst factor per edge.
    ///
    /// This is the reference renderer; the simulator uses the diff-based
    /// [`render_overlay`](Self::render_overlay), which debug-asserts
    /// agreement with this one on every call.
    pub fn overlay(&self, network: &RoadNetwork) -> TrafficOverlay {
        let mut overlay = TrafficOverlay::new();
        for disruption in &self.active {
            for eid in disruption_footprint(network, disruption) {
                overlay.slow_edge(eid, disruption.factor);
            }
        }
        overlay
    }

    /// Renders the active traffic set as a [`TrafficOverlay`] by applying
    /// only the *diffs* since the previous render: footprints of newly
    /// activated disruptions are folded in, footprints of expired ones are
    /// retired and only their edges re-maximised over the survivors. Steady
    /// churn therefore costs `O(changed footprints)` instead of
    /// `O(active × E)` per change.
    ///
    /// The rendered result is identical to [`overlay`](Self::overlay)
    /// (debug-asserted), so the two can be used interchangeably; only the
    /// incremental state kept between calls differs.
    pub fn render_overlay(&mut self, network: &RoadNetwork) -> TrafficOverlay {
        // Diff the previously rendered list against the active list. The
        // active list only ever drops entries (order-preserving retain) and
        // appends new ones, so a single forward walk aligns the two.
        let mut ai = 0usize;
        let mut kept: Vec<RenderedDisruption> = Vec::with_capacity(self.active.len());
        let mut expired: Vec<RenderedDisruption> = Vec::new();
        for entry in self.rendered.drain(..) {
            if ai < self.active.len() && entry.disruption == self.active[ai] {
                kept.push(entry);
                ai += 1;
            } else {
                expired.push(entry);
            }
        }
        self.rendered = kept;

        // Retire expired footprints: drop their edges, then re-maximise just
        // those edges over the surviving footprints.
        if !expired.is_empty() {
            let affected: BTreeSet<EdgeId> =
                expired.iter().flat_map(|e| e.edges.iter().copied()).collect();
            for eid in &affected {
                self.edge_mult.remove(eid);
            }
            for survivor in &self.rendered {
                for eid in &survivor.edges {
                    if affected.contains(eid) {
                        let slot = self.edge_mult.entry(*eid).or_insert(1.0);
                        *slot = slot.max(survivor.disruption.factor);
                    }
                }
            }
        }

        // Fold in newly activated footprints.
        for disruption in self.active[ai..].iter().copied() {
            let edges = disruption_footprint(network, &disruption);
            for &eid in &edges {
                let slot = self.edge_mult.entry(eid).or_insert(1.0);
                *slot = slot.max(disruption.factor);
            }
            self.rendered.push(RenderedDisruption { disruption, edges });
        }

        let mut overlay = TrafficOverlay::new();
        for (&eid, &factor) in &self.edge_mult {
            overlay.slow_edge(eid, factor);
        }
        debug_assert_eq!(
            overlay,
            self.overlay(network),
            "diffed overlay must agree with the full rebuild"
        );
        overlay
    }
}

/// The schedule's durable state is `(events, cursor, active)`. The
/// incremental render cache (`rendered`, `edge_mult`) is deliberately *not*
/// serialised: a decoded schedule starts with an empty cache, so the next
/// [`EventSchedule::render_overlay`] folds every active footprint in as new
/// — which produces exactly the same overlay as the cache would have
/// (debug-asserted against the full rebuild on every render).
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
        Ok(EventSchedule {
            events,
            cursor,
            active,
            rendered: Vec::new(),
            edge_mult: BTreeMap::new(),
        })
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
    fn incremental_render_tracks_the_full_rebuild_through_a_lifecycle() {
        let b = GridCityBuilder::new(6, 6).spacing_m(250.0);
        let net = b.build();
        let incident_a = TrafficDisruption::localized(
            DisruptionCause::Incident,
            b.node_at(0, 0),
            400.0,
            2.0,
            t(12, 30),
        );
        let incident_b = TrafficDisruption::localized(
            DisruptionCause::Incident,
            b.node_at(5, 5),
            400.0,
            3.0,
            t(13, 0),
        );
        let rain = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.4, t(13, 30));
        let mut schedule = EventSchedule::new(vec![
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(incident_a)),
            DisruptionEvent::new(t(12, 10), EventKind::Traffic(incident_b)),
            DisruptionEvent::new(t(12, 40), EventKind::Traffic(rain)),
        ]);
        // Walk the whole lifecycle: 2 activations, an overlapping city-wide
        // activation, then staggered expiries down to empty. At every step
        // the diffed render must equal the from-scratch rebuild.
        for minutes in [5, 15, 35, 45, 55, 65, 95] {
            schedule.advance_to(t(12, 0) + foodmatch_roadnet::Duration::from_mins(minutes as f64));
            let incremental = schedule.render_overlay(&net);
            let rebuilt = schedule.overlay(&net);
            assert_eq!(incremental, rebuilt, "diverged at +{minutes} min");
        }
        assert!(!schedule.traffic_active());
        assert!(schedule.render_overlay(&net).is_empty());
    }

    #[test]
    fn incremental_render_handles_skipped_renders() {
        // The simulator only renders when the active set changed, but the
        // diff must also absorb several changes batched between renders.
        let net = GridCityBuilder::new(4, 4).build();
        let first = TrafficDisruption::city_wide(DisruptionCause::Rain, 1.5, t(12, 10));
        let second = TrafficDisruption::localized(
            DisruptionCause::Incident,
            NodeId(5),
            10_000.0,
            2.5,
            t(12, 40),
        );
        let mut schedule = EventSchedule::new(vec![
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(first)),
            DisruptionEvent::new(t(12, 20), EventKind::Traffic(second)),
        ]);
        schedule.advance_to(t(12, 5));
        // Skip rendering the first activation; advance through the first
        // expiry and the second activation, then render once.
        schedule.advance_to(t(12, 25));
        let overlay = schedule.render_overlay(&net);
        assert_eq!(overlay, schedule.overlay(&net));
        for eid in net.edge_ids() {
            assert_eq!(overlay.multiplier(eid), 2.5);
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
        // Advance mid-stream (rain active, one cancellation fired) and
        // render once so the incremental cache is warm — the cache must not
        // leak into the encoding.
        schedule.advance_to(t(12, 25));
        let _ = schedule.render_overlay(&net);

        let mut restored = EventSchedule::from_bytes(&schedule.to_bytes()).unwrap();
        assert_eq!(restored.events(), schedule.events());
        assert_eq!(restored.active_traffic(), schedule.active_traffic());
        assert_eq!(restored.render_overlay(&net), schedule.render_overlay(&net));
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
            t(14, 0),
        );
        let mut schedule = EventSchedule::new(vec![
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(rain)),
            DisruptionEvent::new(t(12, 0), EventKind::Traffic(incident)),
        ]);
        schedule.advance_to(t(12, 5));
        assert_eq!(schedule.active_traffic().len(), 2);
        let overlay = schedule.overlay(&net);
        assert_eq!(overlay.len(), net.edge_count());
        // The incident blankets the whole grid, so max-combination wins
        // everywhere.
        for eid in net.edge_ids() {
            assert_eq!(overlay.multiplier(eid), 2.5);
        }
    }
}
