//! The sharded dispatch router: one metro, N per-zone run states on one
//! window clock, behind the façade of a single service.
//!
//! The paper evaluates one dispatcher loop per city day; a metro deployment
//! is many City-B-sized zones behind one API. [`DispatchRouter`] holds a
//! [`ZoneMap`] (a partition of the road network's nodes into dispatch
//! zones) plus one [`DispatchService`] shard per zone, each with its *own*
//! [`ShortestPathEngine`] over the shared network: engine clones share the
//! traffic overlay, and zone-local incidents must not leak across shards.
//!
//! The router exposes the same surface as a single service, so callers swap
//! one for the other without restructuring:
//!
//! * [`submit_order`](DispatchRouter::submit_order) — routed to the zone
//!   that owns the order's **restaurant** node (first-mile locality). An id
//!   any shard's order book holds is a duplicate router-wide, and the same
//!   books route later order events to their shard.
//! * [`ingest_event`](DispatchRouter::ingest_event) — routed by
//!   [`EventScope`]: city-wide events broadcast to every shard; localized
//!   incidents go to the zones whose bounding region the incident circle
//!   touches; order/vehicle events go to the owning shard.
//! * [`advance_to`](DispatchRouter::advance_to) — the router keeps no clock
//!   of its own: the service's window clock (`step.rs`) ticks every shard
//!   one window at a time, the shards of a window concurrently via
//!   [`parallel_map`]: the calling thread and up to `num_threads − 1`
//!   workers each claim the next unstepped zone until none is left, and a
//!   zone's own stages run at the width its claimant was left (inline when
//!   there are at least as many zones as threads). The router's clock is
//!   the latest shard clock. Outputs
//!   merge into one stream of [`RoutedOutput`]s tagged with their
//!   [`ZoneId`] (window by window, zones in index order — bit-identical for
//!   every thread count).
//! * [`snapshot`](DispatchRouter::snapshot) /
//!   [`report`](DispatchRouter::report) — aggregated across shards, with
//!   the per-zone breakdown retained.
//!
//! With a single zone covering the whole network the router *is* the bare
//! service: `tests/router_equivalence.rs` pins a 1-zone router bit-identical
//! to a [`DispatchService`] on a disruption-heavy day.

use crate::checkpoint::{RestoreError, RouterCheckpoint};
use crate::metrics::{SimulationReport, WindowStats, MAX_TRACKED_LOAD};
use crate::service::{
    AdvanceOutcome, DispatchOutput, DispatchService, IngestOutcome, ServiceSnapshot, SubmitOutcome,
};
use crate::step::{advance_windows, assert_fleet_on_network, names_node_outside, Clock, Tick};
use foodmatch_core::{parallel_map, DispatchConfig, DispatchPolicy, Order, OrderId, VehicleId};
use foodmatch_events::{DisruptionEvent, EventScope};
use foodmatch_roadnet::{
    haversine_meters, Duration, GeoPoint, NodeId, RoadNetwork, ShortestPathEngine, TimePoint,
};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a dispatch zone — the index of the zone in its
/// [`ZoneMap`], stable for the lifetime of the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

impl ZoneId {
    /// The zone's position in its map's `zones()` slice.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zone-{}", self.0)
    }
}

/// One dispatch zone: its id, seed center, and the geographic bounding box
/// of the nodes assigned to it (used to decide which localized incidents
/// touch the zone).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Zone {
    /// The zone's identifier.
    pub id: ZoneId,
    /// The center the zone was seeded from (for Voronoi maps) or the
    /// centroid of its nodes (for the single-zone map).
    pub center: GeoPoint,
    /// Number of network nodes assigned to the zone.
    pub node_count: usize,
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl Zone {
    fn seeded(id: ZoneId, center: GeoPoint) -> Self {
        Zone {
            id,
            center,
            node_count: 0,
            min_lat: center.lat,
            max_lat: center.lat,
            min_lon: center.lon,
            max_lon: center.lon,
        }
    }

    fn absorb(&mut self, point: GeoPoint) {
        self.node_count += 1;
        self.min_lat = self.min_lat.min(point.lat);
        self.max_lat = self.max_lat.max(point.lat);
        self.min_lon = self.min_lon.min(point.lon);
        self.max_lon = self.max_lon.max(point.lon);
    }

    /// True when a circle of `radius_m` meters around `center` touches the
    /// zone's bounding box (conservative: the box over-approximates the
    /// zone's true footprint, so incidents are never missed, at worst
    /// delivered to one shard too many).
    pub fn touches_circle(&self, center: GeoPoint, radius_m: f64) -> bool {
        let nearest = GeoPoint::new(
            center.lat.clamp(self.min_lat, self.max_lat),
            center.lon.clamp(self.min_lon, self.max_lon),
        );
        haversine_meters(center, nearest) <= radius_m
    }
}

/// A partition of a road network's nodes into dispatch zones.
///
/// Built once per deployment and shared read-only by the router: every node
/// maps to at most one zone ([`ZoneMap::voronoi_within`] leaves far-flung
/// nodes unassigned, which the router surfaces as
/// [`SubmitOutcome::NoZoneForLocation`]).
#[derive(Clone, Debug)]
pub struct ZoneMap {
    /// Per node index: the owning zone, if any.
    assignment: Vec<Option<u32>>,
    zones: Vec<Zone>,
}

impl ZoneMap {
    /// The trivial map: one zone covering every node, centered on the
    /// network's centroid. A router over this map is an (exactly
    /// bit-identical) [`DispatchService`].
    pub fn single(network: &RoadNetwork) -> Self {
        let nodes = network.node_count().max(1) as f64;
        let (mut lat, mut lon) = (0.0, 0.0);
        for node in network.node_ids() {
            let p = network.position(node);
            lat += p.lat;
            lon += p.lon;
        }
        ZoneMap::voronoi(network, &[GeoPoint::new(lat / nodes, lon / nodes)])
    }

    /// Assigns every node to its nearest center (straight-line; ties go to
    /// the lowest center index). Every node gets a zone.
    ///
    /// # Panics
    /// Panics when `centers` is empty.
    pub fn voronoi(network: &RoadNetwork, centers: &[GeoPoint]) -> Self {
        ZoneMap::voronoi_within(network, centers, f64::INFINITY)
    }

    /// [`ZoneMap::voronoi`], but nodes further than `max_radius_m` meters
    /// from every center stay unassigned — orders and vehicles there are
    /// outside the deployment's service area.
    ///
    /// # Panics
    /// Panics when `centers` is empty.
    pub fn voronoi_within(network: &RoadNetwork, centers: &[GeoPoint], max_radius_m: f64) -> Self {
        assert!(!centers.is_empty(), "a zone map needs at least one center");
        let mut zones: Vec<Zone> = centers
            .iter()
            .enumerate()
            .map(|(i, &center)| Zone::seeded(ZoneId(i as u32), center))
            .collect();
        let mut assignment = vec![None; network.node_count()];
        for node in network.node_ids() {
            let position = network.position(node);
            let mut best: Option<(usize, f64)> = None;
            for (zi, &center) in centers.iter().enumerate() {
                let d = haversine_meters(position, center);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((zi, d));
                }
            }
            let (zi, d) = best.expect("at least one center");
            if d <= max_radius_m {
                assignment[node.index()] = Some(zi as u32);
                zones[zi].absorb(position);
            }
        }
        ZoneMap { assignment, zones }
    }

    /// Number of zones in the map.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The zones, indexed by [`ZoneId::index`].
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone owning `node`, if any.
    pub fn zone_of(&self, node: NodeId) -> Option<ZoneId> {
        self.assignment.get(node.index()).copied().flatten().map(ZoneId)
    }

    /// Every zone whose bounding region a circle of `radius_m` meters around
    /// `center` touches, in zone order.
    pub fn zones_touching(&self, center: GeoPoint, radius_m: f64) -> Vec<ZoneId> {
        self.zones
            .iter()
            .filter(|z| z.node_count > 0 && z.touches_circle(center, radius_m))
            .map(|z| z.id)
            .collect()
    }

    /// The non-empty zone whose center is closest to `point` (fallback
    /// placement for vehicles starting on unassigned nodes).
    pub fn nearest_zone(&self, point: GeoPoint) -> Option<ZoneId> {
        self.zones
            .iter()
            .filter(|z| z.node_count > 0)
            .min_by(|a, b| {
                haversine_meters(point, a.center)
                    .partial_cmp(&haversine_meters(point, b.center))
                    .expect("distances are never NaN")
            })
            .map(|z| z.id)
    }
}

/// One output event of a [`DispatchRouter`]: a [`DispatchOutput`] tagged
/// with the zone whose shard produced it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedOutput {
    /// The zone the event happened in.
    pub zone: ZoneId,
    /// What happened.
    pub output: DispatchOutput,
}

/// A point-in-time view of the whole router: the aggregate of every shard's
/// [`ServiceSnapshot`] plus the per-zone breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterSnapshot {
    /// The router clock (close time of the last lockstep window).
    pub now: TimePoint,
    /// Whether every shard has terminated.
    pub finished: bool,
    /// Orders submitted across all shards.
    pub submitted: usize,
    /// Orders not yet arrived, summed over shards.
    pub queued: usize,
    /// Orders waiting in the unassigned pools, summed over shards.
    pub pending: usize,
    /// Orders riding on vehicles, summed over shards.
    pub in_flight: usize,
    /// Orders delivered so far, summed over shards.
    pub delivered: usize,
    /// Orders rejected so far, summed over shards.
    pub rejected: usize,
    /// Orders cancelled so far, summed over shards.
    pub cancelled: usize,
    /// Vehicles on shift, summed over shards.
    pub vehicles_on_shift: usize,
    /// True when any shard has an active traffic disruption.
    pub traffic_active: bool,
    /// Every shard's own snapshot, in zone order.
    pub zones: Vec<(ZoneId, ServiceSnapshot)>,
}

/// The final (or mid-run) metrics of a [`DispatchRouter`] run: one
/// aggregated [`SimulationReport`] plus the per-zone reports it was merged
/// from.
///
/// The aggregate sums every additive quantity (distance and waiting
/// histograms, counts) and merges the window statistics chronologically
/// (ties in zone order). Per-order lists (`delivered`, `rejected`, …)
/// concatenate in zone order, each zone's chronological order preserved —
/// with a single zone the aggregate is the shard's report verbatim.
#[derive(Clone, Debug, PartialEq)]
pub struct RouterReport {
    /// The metro-wide merged report.
    pub aggregate: SimulationReport,
    /// Each zone's own report, in zone order.
    pub zones: Vec<(ZoneId, SimulationReport)>,
}

/// The sharded dispatch router — see the [module docs](self).
#[derive(Debug)]
pub struct DispatchRouter<P: DispatchPolicy> {
    zones: ZoneMap,
    /// The network the zone map was built over (kept for event targeting:
    /// localized incidents are positioned by node).
    network: RoadNetwork,
    /// One independent service per zone. `Mutex` only so the lockstep
    /// fan-out can hand `&self.shards` to [`parallel_map`] (which takes the
    /// items immutably); there is no lock contention — each shard is
    /// claimed, and locked, by exactly one participant per window.
    shards: Vec<Mutex<DispatchService<P>>>,
    /// Every known vehicle's zone. A vehicle joining mid-run is routed when
    /// ingested, before its event fires and puts it in a shard's fleet.
    vehicle_zone: BTreeMap<VehicleId, u32>,
    config: DispatchConfig,
    metrics: RouterMetrics,
}

/// Telemetry handles for the lockstep fan-out. Acquired at construction
/// and at restore (run state, not checkpoint state); inert when no
/// recorder is installed, and strictly observational either way.
#[derive(Debug)]
struct RouterMetrics {
    /// `router.advance_ns` — one whole lockstep step across every shard.
    advance_ns: foodmatch_telemetry::Histogram,
    /// `router.shard_advance_ns` — each shard's own advance within a step.
    shard_advance_ns: foodmatch_telemetry::Histogram,
    /// `router.shard_imbalance_ns` — slowest minus fastest shard per step:
    /// the straggler gap the lockstep barrier waits out.
    imbalance_ns: foodmatch_telemetry::Histogram,
}

impl RouterMetrics {
    fn acquire() -> Self {
        RouterMetrics {
            advance_ns: foodmatch_telemetry::histogram("router.advance_ns"),
            shard_advance_ns: foodmatch_telemetry::histogram("router.shard_advance_ns"),
            imbalance_ns: foodmatch_telemetry::histogram("router.shard_imbalance_ns"),
        }
    }
}

impl<P: DispatchPolicy> DispatchRouter<P> {
    /// Creates an idle router at `start`.
    ///
    /// Each zone gets its own caching [`ShortestPathEngine`] over (a clone
    /// of) `network` — engines must not be shared across shards because
    /// clones share the traffic overlay, and zone-local incidents are the
    /// point of sharding. The fleet is partitioned by each vehicle's start
    /// node; vehicles starting on unassigned nodes join the zone with the
    /// nearest center. `make_policy` is called once per zone, in zone
    /// order, so every shard gets its own policy instance.
    ///
    /// # Panics
    /// Panics when the zone map is empty, no zone has any node, the
    /// configuration is invalid, `end` precedes `start`, or a vehicle starts
    /// on a node that is not in `network` (the message names the vehicle).
    #[allow(clippy::too_many_arguments)] // the one constructor; each argument is a deployment fact
    pub fn new(
        network: &RoadNetwork,
        zones: ZoneMap,
        vehicle_starts: Vec<(VehicleId, NodeId)>,
        mut make_policy: impl FnMut(ZoneId) -> P,
        config: DispatchConfig,
        start: TimePoint,
        end: TimePoint,
        drain_limit: Duration,
    ) -> Self {
        assert!(
            zones.zones().iter().any(|z| z.node_count > 0),
            "a router needs at least one non-empty zone"
        );
        let mut vehicle_zone = BTreeMap::new();
        let mut fleets: Vec<Vec<(VehicleId, NodeId)>> = vec![Vec::new(); zones.zone_count()];
        assert_fleet_on_network(&vehicle_starts, network.node_count());
        for (vehicle, node) in vehicle_starts {
            let zone = zones
                .zone_of(node)
                .or_else(|| zones.nearest_zone(network.position(node)))
                .expect("some zone is non-empty");
            vehicle_zone.insert(vehicle, zone.0);
            fleets[zone.index()].push((vehicle, node));
        }
        let shards: Vec<Mutex<DispatchService<P>>> = zones
            .zones()
            .iter()
            .zip(fleets)
            .map(|(zone, fleet)| {
                let engine = ShortestPathEngine::cached(network.clone());
                Mutex::new(DispatchService::new(
                    engine,
                    fleet,
                    make_policy(zone.id),
                    config.clone(),
                    start,
                    end,
                    drain_limit,
                ))
            })
            .collect();
        DispatchRouter {
            zones,
            network: network.clone(),
            shards,
            vehicle_zone,
            config,
            metrics: RouterMetrics::acquire(),
        }
    }

    /// Submits one order, routed to the zone owning its restaurant node.
    /// Same contract as [`DispatchService::submit_order`], with
    /// [`SubmitOutcome::NoZoneForLocation`] also when the restaurant lies
    /// outside every zone. Duplicate detection is router-global: an id
    /// submitted to one zone is a duplicate in every other zone too.
    pub fn submit_order(&mut self, order: Order) -> SubmitOutcome {
        if self.is_finished() {
            return SubmitOutcome::ServiceFinished;
        }
        let Some(zone) = self.zones.zone_of(order.restaurant) else {
            return SubmitOutcome::NoZoneForLocation;
        };
        if self.shard_of_order(order.id).is_some() {
            return SubmitOutcome::Duplicate;
        }
        self.shard_mut(zone.index()).submit_order(order)
    }

    /// Streams one disruption event into the router, delivered by its
    /// [`EventScope`]:
    ///
    /// * city-wide events broadcast to every shard;
    /// * localized incidents go to the zones whose bounding region the
    ///   incident circle touches ([`IngestOutcome::NoZoneForLocation`] when
    ///   it touches none, or is centered on a node outside the network);
    /// * order events go to the owning zone; events for orders the router
    ///   has never seen broadcast (every shard ignores unknown ids, exactly
    ///   like the bare service);
    /// * vehicle events go to the owning zone; an on-shift event for a
    ///   brand-new vehicle joins the zone of its start location.
    pub fn ingest_event(&mut self, event: DisruptionEvent) -> IngestOutcome {
        if self.is_finished() {
            return IngestOutcome::ServiceFinished;
        }
        if names_node_outside(&event, self.network.node_count()) {
            return IngestOutcome::NoZoneForLocation;
        }
        match event.scope() {
            EventScope::CityWide => self.ingest_into(0..self.shards.len(), event),
            EventScope::Localized { center, radius_m } => {
                let position = self.network.position(center);
                let touched = self.zones.zones_touching(position, radius_m);
                if touched.is_empty() {
                    return IngestOutcome::NoZoneForLocation;
                }
                self.ingest_into(touched.into_iter().map(ZoneId::index), event)
            }
            EventScope::Order(order) => match self.shard_of_order(order) {
                Some(zone) => self.shard_mut(zone).ingest_event(event),
                // Never submitted here: broadcast — every shard ignores
                // cancellations/delays for ids it does not know, preserving
                // the single-service semantics for out-of-order streams.
                None => self.ingest_into(0..self.shards.len(), event),
            },
            EventScope::Vehicle { vehicle, location } => {
                if let Some(zone) = self.vehicle_zone.get(&vehicle).copied() {
                    return self.shard_mut(zone as usize).ingest_event(event);
                }
                match location {
                    Some(node) => match self.zones.zone_of(node) {
                        Some(zone) => {
                            let outcome = self.shard_mut(zone.index()).ingest_event(event);
                            if outcome.is_accepted() {
                                self.vehicle_zone.insert(vehicle, zone.0);
                            }
                            outcome
                        }
                        None => IngestOutcome::NoZoneForLocation,
                    },
                    // Off-shift for a vehicle no shard knows: accepted and
                    // inert, as in the bare service.
                    None => self.ingest_into(0..self.shards.len(), event),
                }
            }
        }
    }

    /// Ingests `event` into the `zones`' shards; accepted if any accepts it.
    fn ingest_into(
        &mut self,
        zones: impl Iterator<Item = usize>,
        event: DisruptionEvent,
    ) -> IngestOutcome {
        let mut outcome = IngestOutcome::ServiceFinished;
        for zone in zones {
            if self.shard_mut(zone).ingest_event(event).is_accepted() {
                outcome = IngestOutcome::Accepted;
            }
        }
        outcome
    }

    /// Advances every shard in lockstep to `until`, one accumulation window
    /// at a time, and returns the merged output stream. Windows are
    /// processed whole, by the same window clock as
    /// [`DispatchService::advance_to`]. The shards of each window run
    /// concurrently, `config.num_threads` wide: the calling thread and the
    /// workers claim zones one at a time, so a participant that finishes a
    /// light zone takes the next one, and with `k` participants each zone's
    /// stages fan out at most `num_threads / k` wide. Outputs are appended
    /// in zone order, so the stream is bit-identical for every thread count
    /// and every schedule.
    ///
    /// Returns the same typed [`AdvanceOutcome`] as the bare service (with
    /// zone-tagged outputs): a target behind the router clock reports
    /// [`AdvanceStatus::OutOfOrder`](crate::AdvanceStatus::OutOfOrder)
    /// instead of silently doing nothing.
    pub fn advance_to(&mut self, until: TimePoint) -> AdvanceOutcome<RoutedOutput> {
        advance_windows(self.clock(), until, |tick, out| {
            self.fan_out(tick, out);
            self.is_finished()
        })
    }

    /// Steps one tick on every shard, concurrently when the configuration
    /// allows, outputs tagged and appended in zone order.
    fn fan_out(&mut self, tick: Tick, out: &mut Vec<RoutedOutput>) {
        let _step = self.metrics.advance_ns.timer();
        // Per-shard wall time is only read when a recorder is live; the
        // measurement is observational — outputs are identical either way.
        let timed = self.metrics.shard_advance_ns.is_live();
        let per_shard: Vec<(Vec<DispatchOutput>, u64)> =
            parallel_map(&self.shards, self.config.effective_threads(), |zi, shard| {
                let _span = foodmatch_telemetry::span_dyn("shard", || format!("zone{zi}"));
                let started = timed.then(Instant::now);
                let mut outputs = Vec::new();
                shard.lock().expect("shard lock").tick(tick, &mut outputs);
                let nanos = started.map_or(0, |s| s.elapsed().as_nanos() as u64);
                (outputs, nanos)
            });
        if timed {
            let (mut fastest, mut slowest) = (u64::MAX, 0u64);
            for &(_, nanos) in &per_shard {
                self.metrics.shard_advance_ns.record(nanos);
                fastest = fastest.min(nanos);
                slowest = slowest.max(nanos);
            }
            if per_shard.len() > 1 {
                self.metrics.imbalance_ns.record(slowest - fastest);
            }
        }
        for (zi, (outputs, _)) in per_shard.into_iter().enumerate() {
            let zone = ZoneId(zi as u32);
            out.extend(outputs.into_iter().map(|output| RoutedOutput { zone, output }));
        }
    }

    /// Drives the router to completion (through the drain phase) and
    /// returns the final report.
    pub fn run_to_completion(&mut self) -> RouterReport {
        let _ = self.advance_to(self.drain_deadline());
        self.report()
    }

    /// The instant past which [`Self::advance_to`] finalizes every shard.
    pub fn drain_deadline(&self) -> TimePoint {
        self.clock().drain_end
    }

    /// True once every shard has terminated and the report is final.
    pub fn is_finished(&self) -> bool {
        self.clock().finished
    }

    /// The router clock: the latest shard clock.
    pub fn now(&self) -> TimePoint {
        self.clock().now
    }

    /// The shards' one window clock.
    fn clock(&self) -> Clock {
        Clock::lockstep(self.shards.iter().map(|s| s.lock().expect("shard lock").state.clock()))
    }

    /// The shard whose order book holds `order` (the books are disjoint).
    fn shard_of_order(&self, order: OrderId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.lock().expect("shard lock").state.book.contains_key(&order))
    }

    /// The dispatcher configuration every shard runs under.
    pub fn config(&self) -> &DispatchConfig {
        &self.config
    }

    /// The zone partition the router routes by.
    pub fn zone_map(&self) -> &ZoneMap {
        &self.zones
    }

    /// A point-in-time view of the whole deployment: per-shard snapshots
    /// plus their aggregate.
    pub fn snapshot(&self) -> RouterSnapshot {
        let zones: Vec<(ZoneId, ServiceSnapshot)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(zi, shard)| (ZoneId(zi as u32), shard.lock().expect("shard lock").snapshot()))
            .collect();
        let sum = |f: fn(&ServiceSnapshot) -> usize| zones.iter().map(|(_, s)| f(s)).sum();
        RouterSnapshot {
            now: zones.iter().map(|(_, s)| s.now).max().expect("at least one zone"),
            finished: zones.iter().all(|(_, s)| s.finished),
            submitted: sum(|s| s.submitted),
            queued: sum(|s| s.queued),
            pending: sum(|s| s.pending),
            in_flight: sum(|s| s.in_flight),
            delivered: sum(|s| s.delivered),
            rejected: sum(|s| s.rejected),
            cancelled: sum(|s| s.cancelled),
            vehicles_on_shift: sum(|s| s.vehicles_on_shift),
            traffic_active: zones.iter().any(|(_, s)| s.traffic_active),
            zones,
        }
    }

    /// The metrics accumulated so far: every shard's [`SimulationReport`]
    /// and their merge (see [`RouterReport`] for the merge semantics).
    /// Mid-run the reports are partial views, exactly as for the service.
    pub fn report(&self) -> RouterReport {
        let zones: Vec<(ZoneId, SimulationReport)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(zi, shard)| (ZoneId(zi as u32), shard.lock().expect("shard lock").report()))
            .collect();
        let aggregate = merge_reports(&zones);
        RouterReport { aggregate, zones }
    }

    /// Captures the complete deployment state as a [`RouterCheckpoint`]:
    /// every zone shard's run state plus the vehicle→zone routing map.
    /// Restore with [`DispatchRouter::restore`] — same network, same zone
    /// map, same policy factory — to resume the run bit-identically.
    ///
    /// As on the service, `wal_seq` is zero; a
    /// [`DurableDispatch`](crate::durable::DurableDispatch) stamps the log
    /// position on top.
    pub fn checkpoint(&self) -> RouterCheckpoint {
        let shards = self.shards.iter().map(|s| s.lock().expect("shard lock").state.clone());
        RouterCheckpoint {
            wal_seq: 0,
            vehicle_zone: self.vehicle_zone.clone(),
            shards: shards.collect(),
        }
    }

    /// Rebuilds a router from a [`RouterCheckpoint`], resuming the
    /// deployment exactly where [`checkpoint`](Self::checkpoint) captured
    /// it. The caller supplies the deployment configuration the checkpoint
    /// deliberately omits: the road network, the zone map the run was
    /// created with (validated against the checkpoint's shard count), and
    /// the per-zone policy factory. Each shard gets a fresh caching engine,
    /// with its overlay re-installed when the shard was checkpointed under
    /// an active disruption.
    pub fn restore(
        network: &RoadNetwork,
        zones: ZoneMap,
        mut make_policy: impl FnMut(ZoneId) -> P,
        checkpoint: &RouterCheckpoint,
    ) -> Result<Self, RestoreError> {
        if zones.zone_count() != checkpoint.shards.len() {
            return Err(RestoreError::ZoneCountMismatch {
                checkpoint: checkpoint.shards.len(),
                zones: zones.zone_count(),
            });
        }
        let shards: Vec<Mutex<DispatchService<P>>> = zones
            .zones()
            .iter()
            .zip(&checkpoint.shards)
            .map(|(zone, state)| {
                let engine = ShortestPathEngine::cached(network.clone());
                Mutex::new(DispatchService::wrap(engine, make_policy(zone.id), state.clone()))
            })
            .collect();
        Ok(DispatchRouter {
            zones,
            network: network.clone(),
            shards,
            vehicle_zone: checkpoint.vehicle_zone.clone(),
            config: checkpoint.shards[0].config.clone(),
            metrics: RouterMetrics::acquire(),
        })
    }

    fn shard_mut(&mut self, index: usize) -> &mut DispatchService<P> {
        self.shards[index].get_mut().expect("shard lock")
    }
}

/// Merges per-zone reports into one metro-wide report: additive quantities
/// sum, per-order lists concatenate in zone order, window statistics merge
/// chronologically (ties in zone order). With one zone this is the identity.
fn merge_reports(zones: &[(ZoneId, SimulationReport)]) -> SimulationReport {
    let first = &zones.first().expect("at least one zone").1;
    if zones.len() == 1 {
        return first.clone();
    }
    let mut distance_by_load_m =
        vec![[0.0f64; MAX_TRACKED_LOAD + 1]; first.distance_by_load_m.len()];
    let mut waiting_by_slot = vec![Duration::ZERO; first.waiting_by_slot.len()];
    let mut delivered = Vec::new();
    let mut rejected = Vec::new();
    let mut cancelled = Vec::new();
    let mut undelivered = Vec::new();
    let mut windows: Vec<(TimePoint, u32, WindowStats)> = Vec::new();
    let mut total_orders = 0;
    let mut rejected_during_disruption = 0;
    for (zone, report) in zones {
        total_orders += report.total_orders;
        rejected_during_disruption += report.rejected_during_disruption;
        delivered.extend(report.delivered.iter().copied());
        rejected.extend(report.rejected.iter().copied());
        cancelled.extend(report.cancelled.iter().copied());
        undelivered.extend(report.undelivered.iter().copied());
        windows.extend(report.windows.iter().map(|w| (w.closed_at, zone.0, *w)));
        for (slot, per_slot) in report.distance_by_load_m.iter().enumerate() {
            for (load, meters) in per_slot.iter().enumerate() {
                distance_by_load_m[slot][load] += meters;
            }
        }
        for (slot, waited) in report.waiting_by_slot.iter().enumerate() {
            waiting_by_slot[slot] += *waited;
        }
    }
    windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    SimulationReport {
        policy: first.policy.clone(),
        total_orders,
        delivered,
        rejected,
        rejected_during_disruption,
        cancelled,
        undelivered,
        windows: windows.into_iter().map(|(_, _, w)| w).collect(),
        distance_by_load_m,
        waiting_by_slot,
        horizon: first.horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::policies::{FoodMatchPolicy, GreedyPolicy};
    use foodmatch_events::{DisruptionCause, EventKind, TrafficDisruption};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::CongestionProfile;

    /// A 12×12 free-flow grid with two well-separated corners to zone.
    fn grid() -> (RoadNetwork, GridCityBuilder) {
        let b =
            GridCityBuilder::new(12, 12).congestion(CongestionProfile::free_flow()).major_every(0);
        (b.build(), b)
    }

    /// Two centers on the same row → a vertical Voronoi split between
    /// columns 5 and 6, so the zones' bounding boxes are disjoint (a
    /// diagonal split would make the boxes overlap — still correct, but
    /// useless for asserting targeted delivery).
    fn two_centers(network: &RoadNetwork, b: &GridCityBuilder) -> Vec<GeoPoint> {
        vec![network.position(b.node_at(5, 2)), network.position(b.node_at(5, 9))]
    }

    fn order(id: u64, r: NodeId, c: NodeId, placed: TimePoint) -> Order {
        Order::new(OrderId(id), r, c, placed, 1, Duration::from_mins(6.0))
    }

    fn router(
        network: &RoadNetwork,
        zones: ZoneMap,
        fleet: Vec<(VehicleId, NodeId)>,
    ) -> DispatchRouter<GreedyPolicy> {
        let start = TimePoint::from_hms(12, 0, 0);
        DispatchRouter::new(
            network,
            zones,
            fleet,
            |_| GreedyPolicy::new(),
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
            Duration::from_hours(2.0),
        )
    }

    #[test]
    fn voronoi_assigns_every_node_to_the_nearest_center() {
        let (network, b) = grid();
        let centers = two_centers(&network, &b);
        let map = ZoneMap::voronoi(&network, &centers);
        assert_eq!(map.zone_count(), 2);
        assert_eq!(map.zone_of(b.node_at(0, 0)), Some(ZoneId(0)));
        assert_eq!(map.zone_of(b.node_at(11, 11)), Some(ZoneId(1)));
        let assigned: usize = map.zones().iter().map(|z| z.node_count).sum();
        assert_eq!(assigned, network.node_count(), "voronoi assigns every node");
    }

    #[test]
    fn voronoi_within_leaves_far_nodes_unassigned() {
        let (network, b) = grid();
        // Tight radius around one corner only.
        let center = network.position(b.node_at(1, 1));
        let map = ZoneMap::voronoi_within(&network, &[center], 900.0);
        assert!(map.zone_of(b.node_at(1, 1)).is_some());
        assert_eq!(map.zone_of(b.node_at(11, 11)), None, "the far corner is out of area");
        assert!(map.zones()[0].node_count < network.node_count());
    }

    #[test]
    fn single_zone_covers_the_network_and_touches_everything() {
        let (network, b) = grid();
        let map = ZoneMap::single(&network);
        assert_eq!(map.zone_count(), 1);
        for node in network.node_ids() {
            assert_eq!(map.zone_of(node), Some(ZoneId(0)));
        }
        // Any localized incident touches the only zone.
        let p = network.position(b.node_at(4, 7));
        assert_eq!(map.zones_touching(p, 10.0), vec![ZoneId(0)]);
    }

    #[test]
    fn zones_touching_respects_the_bounding_region() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        // An incident in the heart of zone 0, small radius: zone 0 only.
        let p0 = network.position(b.node_at(1, 1));
        assert_eq!(map.zones_touching(p0, 100.0), vec![ZoneId(0)]);
        // A huge radius touches both zones.
        assert_eq!(map.zones_touching(p0, 1e9), vec![ZoneId(0), ZoneId(1)]);
    }

    #[test]
    fn orders_route_by_restaurant_and_duplicates_are_global() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(1, 1)), (VehicleId(1), b.node_at(10, 10))];
        let mut router = router(&network, map, fleet);
        let start = router.now();
        assert_eq!(
            router.submit_order(order(1, b.node_at(1, 1), b.node_at(3, 1), start)),
            SubmitOutcome::Accepted
        );
        // Same id, other zone's restaurant: still a duplicate.
        assert_eq!(
            router.submit_order(order(1, b.node_at(10, 10), b.node_at(8, 10), start)),
            SubmitOutcome::Duplicate
        );
        assert_eq!(
            router.submit_order(order(2, b.node_at(10, 10), b.node_at(8, 10), start)),
            SubmitOutcome::Accepted
        );
        let report = router.run_to_completion();
        assert_eq!(report.aggregate.total_orders, 2);
        assert_eq!(report.aggregate.delivered.len(), 2);
        // One delivery per zone.
        assert_eq!(report.zones[0].1.delivered.len(), 1);
        assert_eq!(report.zones[1].1.delivered.len(), 1);
        assert!(router.is_finished());
        assert_eq!(router.submit_order(order(3, b.node_at(1, 1), b.node_at(3, 1), start)), {
            SubmitOutcome::ServiceFinished
        });
    }

    #[test]
    fn out_of_area_orders_are_refused() {
        let (network, b) = grid();
        let center = network.position(b.node_at(1, 1));
        let map = ZoneMap::voronoi_within(&network, &[center], 900.0);
        let mut router = router(&network, map, vec![(VehicleId(0), b.node_at(1, 1))]);
        let start = router.now();
        assert_eq!(
            router.submit_order(order(1, b.node_at(11, 11), b.node_at(10, 11), start)),
            SubmitOutcome::NoZoneForLocation
        );
        assert_eq!(router.snapshot().submitted, 0);
    }

    #[test]
    fn nodes_outside_the_network_are_refused_not_indexed() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let mut router = router(&network, map, vec![(VehicleId(0), b.node_at(1, 1))]);
        let start = router.now();
        let (inside, nowhere) = (b.node_at(1, 1), NodeId(12 * 12));
        // The router only looks the restaurant up; the shard checks both.
        for refused in [order(1, inside, nowhere, start), order(1, nowhere, inside, start)] {
            assert_eq!(router.submit_order(refused), SubmitOutcome::NoZoneForLocation);
        }
        let until = start + Duration::from_hours(2.0);
        let incident =
            TrafficDisruption::localized(DisruptionCause::Incident, nowhere, 300.0, 4.0, until);
        for kind in [
            EventKind::Traffic(incident),
            EventKind::VehicleOnShift { vehicle: VehicleId(7), location: nowhere },
            EventKind::VehicleOnShift { vehicle: VehicleId(0), location: nowhere },
        ] {
            let outcome = router.ingest_event(DisruptionEvent::new(start, kind));
            assert_eq!(outcome, IngestOutcome::NoZoneForLocation, "{kind:?}");
        }
        assert_eq!(router.snapshot().submitted, 0);
        // The refused id was never recorded: it is still free.
        assert!(router.submit_order(order(1, inside, b.node_at(3, 1), start)).is_accepted());
        assert_eq!(router.run_to_completion().aggregate.delivered.len(), 1);
    }

    #[test]
    #[should_panic(expected = "vehicle v3 starts on")]
    fn a_vehicle_starting_off_the_network_is_a_configuration_panic_naming_it() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let _ = router(&network, map, vec![(VehicleId(3), NodeId(12 * 12))]);
    }

    #[test]
    fn localized_incidents_only_disrupt_touched_zones() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(11, 11))];
        let mut router = router(&network, map, fleet);
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(4, 1), start));
        let _ = router.submit_order(order(2, b.node_at(10, 10), b.node_at(7, 10), start));
        // A tight incident around zone 0's heart.
        let outcome = router.ingest_event(DisruptionEvent::new(
            start,
            EventKind::Traffic(TrafficDisruption::localized(
                DisruptionCause::Incident,
                b.node_at(1, 1),
                300.0,
                4.0,
                start + Duration::from_hours(2.0),
            )),
        ));
        assert_eq!(outcome, IngestOutcome::Accepted);
        let report = router.run_to_completion();
        assert!(
            report.zones[0].1.windows.iter().any(|w| w.disrupted),
            "zone 0 must see its incident"
        );
        assert!(report.zones[1].1.windows.iter().all(|w| !w.disrupted), "zone 1 must stay calm");
    }

    #[test]
    fn city_wide_events_broadcast_to_every_zone() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(11, 11))];
        let mut router = router(&network, map, fleet);
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(4, 1), start));
        let _ = router.submit_order(order(2, b.node_at(10, 10), b.node_at(7, 10), start));
        let outcome = router.ingest_event(DisruptionEvent::new(
            start,
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                2.0,
                start + Duration::from_hours(2.0),
            )),
        ));
        assert_eq!(outcome, IngestOutcome::Accepted);
        let report = router.run_to_completion();
        for (zone, zone_report) in &report.zones {
            assert!(
                zone_report.windows.iter().any(|w| w.disrupted),
                "{zone} must see the rain surge"
            );
        }
    }

    #[test]
    fn order_and_vehicle_events_find_their_owning_zone() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(11, 11))];
        let mut router = router(&network, map, fleet);
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(4, 1), start));
        // Cancel the zone-0 order; take zone 1's only vehicle off shift.
        let _ = router.ingest_event(DisruptionEvent::new(
            start + Duration::from_mins(1.0),
            EventKind::OrderCancelled { order: OrderId(1) },
        ));
        let _ = router.ingest_event(DisruptionEvent::new(
            start + Duration::from_mins(1.0),
            EventKind::VehicleOffShift { vehicle: VehicleId(1) },
        ));
        // A brand-new driver joins in zone 1 by location.
        let on = router.ingest_event(DisruptionEvent::new(
            start + Duration::from_mins(2.0),
            EventKind::VehicleOnShift { vehicle: VehicleId(7), location: b.node_at(9, 9) },
        ));
        assert_eq!(on, IngestOutcome::Accepted);
        let report = router.run_to_completion();
        assert_eq!(report.zones[0].1.cancelled, vec![OrderId(1)]);
        assert!(report.zones[1].1.cancelled.is_empty());
        let snapshot = router.snapshot();
        // Zone 1 lost vehicle 1 but gained vehicle 7; zone 0 kept vehicle 0.
        assert_eq!(snapshot.zones[1].1.vehicles_on_shift, 1);
        assert_eq!(snapshot.vehicles_on_shift, 2);
    }

    #[test]
    fn snapshot_and_report_aggregate_across_zones() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(11, 11))];
        let mut router = router(&network, map, fleet);
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(4, 1), start));
        let _ = router.submit_order(order(2, b.node_at(10, 10), b.node_at(7, 10), start));
        let outputs = router.run_to_completion();
        let snapshot = router.snapshot();
        assert_eq!(snapshot.submitted, 2);
        assert_eq!(snapshot.delivered, 2);
        assert!(snapshot.finished);
        assert_eq!(outputs.aggregate.delivered.len(), 2);
        assert_eq!(
            outputs.aggregate.total_km(),
            outputs.zones.iter().map(|(_, r)| r.total_km()).sum::<f64>()
        );
        // The merged window stream is chronological.
        let closes: Vec<TimePoint> =
            outputs.aggregate.windows.iter().map(|w| w.closed_at).collect();
        let mut sorted = closes.clone();
        sorted.sort();
        assert_eq!(closes, sorted);
    }

    #[test]
    fn output_stream_is_tagged_and_matches_the_reports() {
        let (network, b) = grid();
        let map = ZoneMap::voronoi(&network, &two_centers(&network, &b));
        let fleet = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(11, 11))];
        let mut router = DispatchRouter::new(
            &network,
            map,
            fleet,
            |_| FoodMatchPolicy::new(),
            DispatchConfig::default(),
            TimePoint::from_hms(12, 0, 0),
            TimePoint::from_hms(13, 0, 0),
            Duration::from_hours(2.0),
        );
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(4, 1), start));
        let _ = router.submit_order(order(2, b.node_at(10, 10), b.node_at(7, 10), start));
        let mut outputs = Vec::new();
        while !router.is_finished() {
            let tick = router.now() + router.config().accumulation_window;
            outputs.extend(router.advance_to(tick));
        }
        let report = router.report();
        for (zone, zone_report) in &report.zones {
            let delivered_out = outputs
                .iter()
                .filter(|o| o.zone == *zone && matches!(o.output, DispatchOutput::Delivered { .. }))
                .count();
            assert_eq!(delivered_out, zone_report.delivered.len());
        }
    }

    #[test]
    fn vehicles_on_unassigned_nodes_fall_back_to_the_nearest_zone() {
        let (network, b) = grid();
        let center = network.position(b.node_at(1, 1));
        let map = ZoneMap::voronoi_within(&network, &[center], 900.0);
        // The vehicle starts far outside the service area but still joins
        // the (only) zone.
        let mut router = router(&network, map, vec![(VehicleId(0), b.node_at(11, 11))]);
        assert_eq!(router.snapshot().vehicles_on_shift, 1);
        let start = router.now();
        let _ = router.submit_order(order(1, b.node_at(1, 1), b.node_at(2, 1), start));
        let report = router.run_to_completion();
        assert_eq!(report.aggregate.delivered.len(), 1);
    }
}
