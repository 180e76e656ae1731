//! The online dispatch service: streaming ingest, tick-driven stepping,
//! typed output events.
//!
//! [`DispatchService`] is the incremental form of the accumulation-window
//! loop (Fig. 5 of the paper). Where [`Simulation::run`](crate::Simulation)
//! replays a pre-materialized scenario start to finish, the service is
//! driven from outside, one call at a time:
//!
//! * [`submit_order`](DispatchService::submit_order) — an order arrives
//!   (from a live demand stream, a replay, anything);
//! * [`ingest_event`](DispatchService::ingest_event) — a disruption arrives
//!   (traffic, cancellation, prep delay, shift churn);
//! * [`advance_to`](DispatchService::advance_to) — the clock moves forward;
//!   every accumulation window that closes in the meantime is processed
//!   (vehicles drive, orders arrive/expire, the policy assigns) and the
//!   observable outcomes come back as typed [`DispatchOutput`] events;
//! * [`snapshot`](DispatchService::snapshot) /
//!   [`report`](DispatchService::report) — point-in-time operational state
//!   and metrics, available mid-run without disturbing the service.
//!
//! The service is a thin shell. The run's state, the window step and the
//! window clock live in the private `step` module (`RunState::step_window`:
//! one function of state, engine and policy, with no recorder, log or
//! filesystem under it; `advance_windows`: the loop that decides which
//! windows close, shared with the router); this file adds the typed
//! outcomes, the telemetry handles and spans around each call, and
//! checkpoint capture / restore, which are a clone and a wrap. Stepping
//! is explicit (`&mut self`) — there is no interior mutability to reason
//! about. The batch driver `Simulation::run` is a thin wrapper that submits
//! the scenario's streams up front and drains the service to completion; a
//! golden test (`tests/service_equivalence.rs`) pins the two entry points
//! bit-identical.
//!
//! ## Semantics worth knowing
//!
//! * The service replicates the batch loop exactly, window by window. An
//!   order must be submitted before the window containing its `placed_at`
//!   closes to behave as in a batch run; orders submitted later are pulled
//!   into the next window (where the rejection deadline still counts from
//!   `placed_at`).
//! * An order's SDT baseline (Definition 6) is evaluated when the order is
//!   *submitted*, under the network conditions active at that moment —
//!   submit orders before installing traffic overlays to reproduce batch
//!   SDTs bit for bit.
//! * Cancellations for orders the service has never seen are ignored, same
//!   as the batch loop ignores cancellations for ids outside the scenario.
//! * Input that names a node the network does not have — an order's
//!   restaurant or customer, an on-shift location, an incident center — is
//!   refused at the door with `NoZoneForLocation`; nothing is admitted.
//! * The service keeps every submitted order for final accounting, so a
//!   perpetual deployment should be restarted (or sharded) per service day,
//!   exactly like the paper's per-day evaluation.

use crate::checkpoint::ServiceCheckpoint;
use crate::metrics::{SimulationReport, WindowStats};
use crate::step::{advance_windows, assert_fleet_on_network, RunState, Tick};
use foodmatch_core::{DispatchConfig, DispatchPolicy, Order, OrderId, VehicleId};
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};

/// The typed outcome of submitting an order to a [`DispatchService`] or a
/// [`DispatchRouter`](crate::router::DispatchRouter).
///
/// Replaces the old `bool` return: callers can now distinguish *why* an
/// order was not admitted instead of guessing.
#[must_use = "submission can be refused — check (or explicitly discard) the outcome"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The order was admitted and will enter a dispatch window.
    Accepted,
    /// An order with the same id was already submitted; this one is ignored.
    Duplicate,
    /// The service (or every router shard) has finished; input is refused.
    ServiceFinished,
    /// The order lies outside the service area: its restaurant or customer
    /// is not a node of the network, or (router) its restaurant node belongs
    /// to no zone of the zone map.
    NoZoneForLocation,
}

impl SubmitOutcome {
    /// True when the order was admitted.
    pub fn is_accepted(self) -> bool {
        self == SubmitOutcome::Accepted
    }
}

/// The typed outcome of streaming a disruption event into a
/// [`DispatchService`] or a [`DispatchRouter`](crate::router::DispatchRouter).
#[must_use = "ingestion can be refused — check (or explicitly discard) the outcome"]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The event was accepted and will fire at its window boundary.
    Accepted,
    /// The service (or every targeted router shard) has finished; the event
    /// is dropped.
    ServiceFinished,
    /// The event lies outside the service area: an incident center or an
    /// on-shift location that is not a node of the network, or (router) a
    /// localized event that touches no zone or a vehicle joining at a node
    /// in no zone.
    NoZoneForLocation,
}

impl IngestOutcome {
    /// True when the event was accepted.
    pub fn is_accepted(self) -> bool {
        self == IngestOutcome::Accepted
    }
}

/// What an [`advance_to`](DispatchService::advance_to) call did to the
/// clock. `OutOfOrder` is the variant that used to be a silent no-op: a
/// replay driver stepping a service from a write-ahead log can now detect a
/// log whose `AdvanceTo` records run backwards instead of quietly producing
/// a diverged run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdvanceStatus {
    /// At least one accumulation window was processed (possibly including
    /// the final drain).
    Advanced,
    /// The target lies inside the current window: legal, but no window
    /// closed yet. Call again with a later target.
    Pending,
    /// The target precedes the service clock. Nothing happened; the caller
    /// is stepping out of order.
    OutOfOrder {
        /// The (stale) target that was requested.
        requested: TimePoint,
        /// The service clock the target fell behind.
        clock: TimePoint,
    },
    /// The service had already finished before the call. Nothing happened.
    Finished,
}

/// The typed result of advancing a [`DispatchService`] (or, with
/// `T = RoutedOutput`, a [`DispatchRouter`](crate::router::DispatchRouter)).
///
/// Iterates like the `Vec` it replaces (`for output in svc.advance_to(..)`,
/// `outputs.extend(svc.advance_to(..))`), and additionally carries a typed
/// [`AdvanceStatus`] so callers — in particular WAL replay — can tell an
/// empty-but-fine step from an out-of-order one.
#[must_use = "advancing can be refused (out-of-order target) — check the status or iterate the outputs"]
#[derive(Clone, Debug, PartialEq)]
pub struct AdvanceOutcome<T = DispatchOutput> {
    /// The typed outcomes of every window processed by this call, in order.
    pub outputs: Vec<T>,
    /// What the call did to the clock.
    pub status: AdvanceStatus,
}

impl<T> AdvanceOutcome<T> {
    /// True when no outputs were produced.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Number of outputs produced.
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Iterates over the outputs by reference.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.outputs.iter()
    }

    /// Consumes the outcome, returning just the outputs.
    pub fn into_outputs(self) -> Vec<T> {
        self.outputs
    }
}

impl<T> IntoIterator for AdvanceOutcome<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.outputs.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a AdvanceOutcome<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.outputs.iter()
    }
}

/// One observable outcome of advancing the service.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DispatchOutput {
    /// The policy assigned an order to a vehicle at a window close.
    Assigned {
        /// The order.
        order: OrderId,
        /// The vehicle it now rides with.
        vehicle: VehicleId,
        /// The window-close time of the assignment.
        at: TimePoint,
    },
    /// A vehicle collected an order from its restaurant.
    PickedUp {
        /// The order.
        order: OrderId,
        /// The vehicle that collected it.
        vehicle: VehicleId,
        /// Pickup time.
        at: TimePoint,
        /// Time the vehicle waited at the restaurant for the food.
        waited: Duration,
    },
    /// An order reached its customer.
    Delivered {
        /// The order.
        order: OrderId,
        /// The vehicle that delivered it.
        vehicle: VehicleId,
        /// Delivery time.
        at: TimePoint,
        /// The order's extra delivery time (Definition 7, clamped at zero).
        xdt: Duration,
    },
    /// An order stayed unassigned past the rejection deadline — or, at the
    /// drain cutoff, never got a ride at all (still pending, or never even
    /// entered a window). Orders that are *on a vehicle* when the drain
    /// limit hits get no terminal event: they surface only as
    /// `report().undelivered` (normally empty; non-empty means the drain
    /// limit is too short for the workload).
    Rejected {
        /// The order.
        order: OrderId,
        /// When the rejection was decided (a window close).
        at: TimePoint,
    },
    /// A customer cancelled an order before pickup.
    Cancelled {
        /// The order.
        order: OrderId,
        /// The cancellation event's timestamp.
        at: TimePoint,
    },
    /// An accumulation window inside the workload horizon closed after a
    /// policy call; carries the same statistics the report records.
    WindowClosed {
        /// The window's statistics.
        stats: WindowStats,
    },
}

/// A point-in-time view of the service's operational state (cheap to take;
/// does not disturb the run).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceSnapshot {
    /// The close time of the last processed window (the service clock).
    pub now: TimePoint,
    /// Orders submitted so far.
    pub submitted: usize,
    /// Submitted orders whose `placed_at` has not been reached yet.
    pub queued: usize,
    /// Orders waiting in the unassigned pool.
    pub pending: usize,
    /// Orders currently riding on a vehicle (assigned or picked up).
    pub in_flight: usize,
    /// Orders delivered so far.
    pub delivered: usize,
    /// Orders rejected so far.
    pub rejected: usize,
    /// Orders cancelled so far.
    pub cancelled: usize,
    /// Vehicles currently on shift.
    pub vehicles_on_shift: usize,
    /// Whether a traffic disruption is currently active.
    pub traffic_active: bool,
    /// Whether the service has terminated (drained or past the drain limit).
    pub finished: bool,
}

/// The online dispatcher: a `RunState` (fleet, order pools, event
/// schedule, metrics) plus the engine handle and the policy that step it,
/// advanced in accumulation windows when told to. See the
/// [module docs](self) for the full contract.
#[derive(Debug)]
pub struct DispatchService<P: DispatchPolicy> {
    engine: ShortestPathEngine,
    policy: P,
    pub(crate) state: RunState,
    metrics: ServiceMetrics,
}

/// Telemetry handles for the service's three entry points plus per-window
/// stepping. Acquired at construction *and* at restore (handles are run
/// state, not checkpoint state — a checkpoint restored in a different
/// process gets that process's recorder). Inert when no recorder is
/// installed; strictly observational either way.
#[derive(Debug)]
struct ServiceMetrics {
    submit_ns: foodmatch_telemetry::Histogram,
    ingest_ns: foodmatch_telemetry::Histogram,
    advance_ns: foodmatch_telemetry::Histogram,
    window_ns: foodmatch_telemetry::Histogram,
    submits: foodmatch_telemetry::Counter,
    ingests: foodmatch_telemetry::Counter,
    windows: foodmatch_telemetry::Counter,
}

impl ServiceMetrics {
    fn acquire() -> Self {
        ServiceMetrics {
            submit_ns: foodmatch_telemetry::histogram("service.submit_ns"),
            ingest_ns: foodmatch_telemetry::histogram("service.ingest_ns"),
            advance_ns: foodmatch_telemetry::histogram("service.advance_ns"),
            window_ns: foodmatch_telemetry::histogram("service.window_ns"),
            submits: foodmatch_telemetry::counter("service.submits"),
            ingests: foodmatch_telemetry::counter("service.ingests"),
            windows: foodmatch_telemetry::counter("service.windows"),
        }
    }
}

impl<P: DispatchPolicy> DispatchService<P> {
    /// Creates an idle service at `start`. The engine handle is shared
    /// (`ShortestPathEngine` clones share caches and the traffic overlay);
    /// any overlay left over from a previous run is cleared so SDT baselines
    /// start from the unperturbed network.
    ///
    /// # Panics
    /// Panics when the configuration is invalid, `end` precedes `start`, or
    /// a vehicle starts on a node that is not in the engine's network (the
    /// message names the vehicle).
    /// A zero-length horizon is allowed (a drain-only service): nothing is
    /// in horizon, but submitted orders are still dispatched through the
    /// drain phase, as the batch loop always did.
    pub fn new(
        engine: ShortestPathEngine,
        vehicle_starts: Vec<(VehicleId, NodeId)>,
        policy: P,
        config: DispatchConfig,
        start: TimePoint,
        end: TimePoint,
        drain_limit: Duration,
    ) -> Self {
        config.validate().expect("invalid dispatch configuration");
        assert!(end >= start, "service horizon must not end before it starts");
        assert_fleet_on_network(&vehicle_starts, engine.network().node_count());
        let state = RunState::new(policy.name(), &vehicle_starts, config, start, end, drain_limit);
        Self::wrap(engine, policy, state)
    }

    /// The shell around `state`, with the engine's overlay made to match it.
    pub(crate) fn wrap(engine: ShortestPathEngine, policy: P, mut state: RunState) -> Self {
        state.install_overlay(&engine);
        DispatchService { engine, policy, state, metrics: ServiceMetrics::acquire() }
    }

    /// Submits one order to the service. The order is ignored when the
    /// returned [`SubmitOutcome`] is not `Accepted` (duplicate id, a
    /// restaurant or customer node outside the network, or the service has
    /// finished).
    ///
    /// The order's SDT baseline is computed here, under the network
    /// conditions active right now; it enters a window once the clock
    /// reaches its `placed_at` (immediately next window if that is already
    /// in the past).
    pub fn submit_order(&mut self, order: Order) -> SubmitOutcome {
        let _timer = self.metrics.submit_ns.timer();
        self.metrics.submits.inc();
        self.state.submit_order(order, &self.engine)
    }

    /// Streams one disruption event into the service. Events timestamped in
    /// the past take effect at the next window open (the batch loop has the
    /// same one-window granularity). Returns
    /// [`IngestOutcome::ServiceFinished`] once the service has finished, and
    /// [`IngestOutcome::NoZoneForLocation`] for an on-shift location or an
    /// incident center that is not a node of the network.
    pub fn ingest_event(&mut self, event: DisruptionEvent) -> IngestOutcome {
        let _timer = self.metrics.ingest_ns.timer();
        self.metrics.ingests.inc();
        self.state.ingest_event(event, &self.engine)
    }

    /// Advances the service clock to `until`, processing every accumulation
    /// window that closes on the way and returning the typed outcomes in
    /// order. Windows are only processed whole: a partial window stays
    /// unprocessed until a later call crosses its close.
    ///
    /// Advancing to [`drain_deadline`](Self::drain_deadline) (or beyond)
    /// drains the service: leftover orders are rejected, the engine overlay
    /// is cleared, and the service refuses further input.
    ///
    /// The returned [`AdvanceOutcome`] iterates like the `Vec` it replaced
    /// and carries a typed [`AdvanceStatus`]: a target earlier than
    /// [`now`](Self::now) — previously a silent no-op — reports
    /// [`AdvanceStatus::OutOfOrder`] so replay-driven stepping (e.g. from a
    /// write-ahead log) can detect a misordered input stream.
    pub fn advance_to(&mut self, until: TimePoint) -> AdvanceOutcome {
        let _timer = self.metrics.advance_ns.timer();
        advance_windows(self.state.clock(), until, |tick, out| {
            self.tick(tick, out);
            self.state.finished
        })
    }

    /// Steps one tick of the window clock (a window, or the drain); a
    /// finished service ignores it. The router fans this out over shards.
    pub(crate) fn tick(&mut self, tick: Tick, out: &mut Vec<DispatchOutput>) {
        if self.state.finished {
            return;
        }
        match tick {
            Tick::Close(close) => {
                let _span = foodmatch_telemetry::span("service", "window");
                let _timer = self.metrics.window_ns.timer();
                self.metrics.windows.inc();
                self.state.step_window(close, &self.engine, &mut self.policy, out);
            }
            Tick::Drain => self.state.finalize(&self.engine, out),
        }
    }

    /// Drives the service to completion (through the drain phase) and
    /// returns the final report. Equivalent to
    /// `advance_to(self.drain_deadline())` + [`report`](Self::report).
    pub fn run_to_completion(&mut self) -> SimulationReport {
        let _ = self.advance_to(self.state.drain_end);
        self.report()
    }

    /// The instant past which [`advance_to`](Self::advance_to) gives up on undelivered orders
    /// and finalizes the run.
    pub fn drain_deadline(&self) -> TimePoint {
        self.state.drain_end
    }

    /// True once the service has terminated (everything drained, or the
    /// drain limit was hit) and the report is final.
    pub fn is_finished(&self) -> bool {
        self.state.finished
    }

    /// The close time of the last processed window (the service clock).
    pub fn now(&self) -> TimePoint {
        self.state.window_close
    }

    /// When the service's day starts (the clock before any stepping).
    pub fn start(&self) -> TimePoint {
        self.state.start
    }

    /// The dispatcher configuration the service runs under.
    pub fn config(&self) -> &DispatchConfig {
        &self.state.config
    }

    /// A point-in-time view of the operational state.
    pub fn snapshot(&self) -> ServiceSnapshot {
        let state = &self.state;
        let report = state.collector.report();
        ServiceSnapshot {
            now: state.window_close,
            submitted: state.orders.len(),
            queued: state.orders.len() - state.next_order,
            pending: state.pending.len(),
            in_flight: state.vehicles.iter().map(|v| v.carried.len()).sum(),
            delivered: report.delivered.len(),
            rejected: state.collector.rejected_count(),
            cancelled: report.cancelled.len(),
            vehicles_on_shift: state.vehicles.iter().filter(|v| v.on_shift).count(),
            traffic_active: state.schedule.traffic_active(),
            finished: state.finished,
        }
    }

    /// The metrics accumulated so far, as a [`SimulationReport`]. Mid-run
    /// the report is a partial view (orders still in flight appear in no
    /// bucket); once [`is_finished`](Self::is_finished) it is the final,
    /// fully accounted report of the run.
    pub fn report(&self) -> SimulationReport {
        self.state.collector.report().clone()
    }

    /// Captures the complete run state as a [`ServiceCheckpoint`]: order
    /// book, pools and cursors, fleet (positions, edge-level itineraries,
    /// shift state), the event-schedule cursor and active overlay set, and
    /// the metrics accumulated so far. Restoring the checkpoint (into a fresh
    /// engine handle over the same network, with the same policy) resumes
    /// the run bit-identically — see
    /// [`DispatchService::restore`].
    ///
    /// The checkpoint's `wal_seq` is zero; a durable wrapper
    /// ([`DurableDispatch`](crate::durable::DurableDispatch)) stamps its
    /// write-ahead-log position on top.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint { wal_seq: 0, state: self.state.clone() }
    }

    /// Rebuilds a service from a [`ServiceCheckpoint`], resuming the run
    /// exactly where [`checkpoint`](Self::checkpoint) captured it.
    ///
    /// The caller supplies the parts that are deliberately *not* in the
    /// checkpoint: an engine handle over the same road network (checkpoints
    /// store run state, not the city), and the policy (stateless across
    /// windows by the [`DispatchPolicy`] contract). Nothing derived is
    /// stored, and if the checkpoint was taken under an active traffic
    /// disruption the engine's overlay is re-rendered and re-installed, so
    /// the restored service sees the same perturbed travel times. The
    /// configuration needs no check here: [`checkpoint`](Self::checkpoint)
    /// and [`Codec`](foodmatch_core::Codec) decoding both validate it.
    pub fn restore(engine: ShortestPathEngine, policy: P, checkpoint: &ServiceCheckpoint) -> Self {
        Self::wrap(engine, policy, checkpoint.state.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::codec::Codec;
    use foodmatch_core::policies::{FoodMatchPolicy, GreedyPolicy};
    use foodmatch_events::{DisruptionCause, EventKind, TrafficDisruption};
    use foodmatch_roadnet::generators::GridCityBuilder;
    use foodmatch_roadnet::CongestionProfile;

    fn grid() -> (ShortestPathEngine, GridCityBuilder) {
        let b =
            GridCityBuilder::new(8, 8).congestion(CongestionProfile::free_flow()).major_every(0);
        (ShortestPathEngine::cached(b.build()), b)
    }

    fn order(id: u64, r: NodeId, c: NodeId, placed: TimePoint) -> Order {
        Order::new(OrderId(id), r, c, placed, 1, Duration::from_mins(8.0))
    }

    fn service(
        engine: &ShortestPathEngine,
        b: &GridCityBuilder,
        policy: impl DispatchPolicy,
    ) -> DispatchService<impl DispatchPolicy> {
        let start = TimePoint::from_hms(12, 0, 0);
        DispatchService::new(
            engine.clone(),
            vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(7, 7))],
            policy,
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
            Duration::from_hours(3.0),
        )
    }

    #[test]
    fn streaming_submission_delivers_and_emits_typed_events() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, FoodMatchPolicy::new());
        let start = svc.now();
        assert!(svc.submit_order(order(1, b.node_at(1, 1), b.node_at(5, 1), start)).is_accepted());
        assert_eq!(
            svc.submit_order(order(1, b.node_at(1, 1), b.node_at(5, 1), start)),
            SubmitOutcome::Duplicate,
            "dup id"
        );

        // Step a few windows, submitting the second order mid-run.
        let mut outputs = svc.advance_to(start + Duration::from_mins(6.0)).into_outputs();
        assert!(svc
            .submit_order(order(
                2,
                b.node_at(6, 6),
                b.node_at(2, 6),
                start + Duration::from_mins(7.0)
            ))
            .is_accepted());
        outputs.extend(svc.advance_to(svc.drain_deadline()));
        let report = svc.report();
        assert!(svc.is_finished());
        assert_eq!(report.total_orders, 2);
        assert_eq!(report.delivered.len(), 2);
        for id in [1u64, 2] {
            assert!(outputs
                .iter()
                .any(|o| matches!(o, DispatchOutput::Delivered { order, .. } if order.0 == id)));
            assert!(outputs
                .iter()
                .any(|o| matches!(o, DispatchOutput::PickedUp { order, .. } if order.0 == id)));
        }
    }

    #[test]
    fn outputs_are_consistent_with_the_report() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, FoodMatchPolicy::new());
        let start = svc.now();
        for i in 0..4 {
            let _ = svc.submit_order(order(
                i,
                b.node_at(1 + (i % 3) as usize, 1),
                b.node_at(5, 1 + (i % 4) as usize),
                start + Duration::from_mins(1.0 + i as f64),
            ));
        }
        let mut delivered = 0;
        let mut assigned = 0;
        let mut windows = 0;
        let mut clock = start;
        while !svc.is_finished() {
            clock += svc.config().accumulation_window;
            for output in svc.advance_to(clock) {
                match output {
                    DispatchOutput::Delivered { .. } => delivered += 1,
                    DispatchOutput::Assigned { .. } => assigned += 1,
                    DispatchOutput::WindowClosed { .. } => windows += 1,
                    _ => {}
                }
            }
        }
        let report = svc.report();
        assert_eq!(delivered, report.delivered.len());
        assert!(assigned >= report.delivered.len(), "every delivery was assigned first");
        assert_eq!(windows, report.windows.len());
    }

    #[test]
    fn snapshot_tracks_the_run_and_never_disturbs_it() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, GreedyPolicy::new());
        let start = svc.now();
        let _ = svc.submit_order(order(1, b.node_at(1, 1), b.node_at(5, 1), start));
        let before = svc.snapshot();
        assert_eq!(before.submitted, 1);
        assert_eq!(before.queued, 1);
        assert!(!before.finished);
        svc.run_to_completion();
        let after = svc.snapshot();
        assert!(after.finished);
        assert_eq!(after.delivered, 1);
        assert_eq!(after.queued, 0);
        assert_eq!(svc.report().delivered.len(), 1);
    }

    #[test]
    fn live_traffic_ingest_slows_deliveries() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let o = order(1, b.node_at(1, 1), b.node_at(6, 1), start + Duration::from_mins(1.0));

        let mut calm = service(&engine, &b, GreedyPolicy::new());
        let _ = calm.submit_order(o);
        let calm_report = calm.run_to_completion();

        let mut slow = service(&engine, &b, GreedyPolicy::new());
        let _ = slow.submit_order(o);
        // The surge is ingested live, mid-run, after the first window.
        let _ = slow.advance_to(start + Duration::from_mins(3.0));
        let _ = slow.ingest_event(DisruptionEvent::new(
            start + Duration::from_mins(4.0),
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                6.0,
                start + Duration::from_hours(4.0),
            )),
        ));
        let slow_report = slow.run_to_completion();
        assert_eq!(slow_report.delivered.len(), 1);
        assert!(
            slow_report.delivered[0].delivered_at > calm_report.delivered[0].delivered_at,
            "a live-ingested 6x surge must delay the delivery"
        );
        assert!(!engine.has_overlay(), "the engine is handed back clean");
    }

    #[test]
    fn finished_service_refuses_input() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, GreedyPolicy::new());
        svc.run_to_completion();
        assert!(svc.is_finished());
        assert_eq!(
            svc.submit_order(order(9, b.node_at(1, 1), b.node_at(5, 1), svc.now())),
            SubmitOutcome::ServiceFinished
        );
        assert_eq!(
            svc.ingest_event(DisruptionEvent::new(
                svc.now(),
                EventKind::OrderCancelled { order: OrderId(9) },
            )),
            IngestOutcome::ServiceFinished
        );
        assert!(svc.advance_to(svc.drain_deadline()).is_empty());
    }

    #[test]
    fn zero_length_horizon_is_a_drain_only_service() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let mut svc = DispatchService::new(
            engine.clone(),
            vec![(VehicleId(0), b.node_at(0, 0))],
            GreedyPolicy::new(),
            DispatchConfig::default(),
            start,
            start,
            Duration::from_hours(1.0),
        );
        let _ = svc.submit_order(order(1, b.node_at(1, 1), b.node_at(5, 1), start));
        let report = svc.run_to_completion();
        assert_eq!(report.delivered.len(), 1, "the drain phase still dispatches");
    }

    #[test]
    fn late_submission_is_pulled_into_the_next_window() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, GreedyPolicy::new());
        let start = svc.now();
        let _ = svc.advance_to(start + Duration::from_mins(9.0));
        // Placed in the (already processed) past: enters the next window.
        let _ = svc.submit_order(order(1, b.node_at(1, 1), b.node_at(5, 1), start));
        let report = svc.run_to_completion();
        assert_eq!(report.total_orders, 1);
        assert_eq!(report.delivered.len(), 1);
    }

    #[test]
    fn advancing_backwards_is_a_typed_out_of_order_status() {
        let (engine, b) = grid();
        let mut svc = service(&engine, &b, GreedyPolicy::new());
        let start = svc.now();
        let _ = svc.advance_to(start + Duration::from_mins(9.0));
        let clock = svc.now();

        // The stale target that used to no-op silently now names itself.
        let outcome = svc.advance_to(start + Duration::from_mins(3.0));
        assert!(outcome.is_empty());
        match outcome.status {
            AdvanceStatus::OutOfOrder { requested, clock: reported } => {
                assert_eq!(requested, start + Duration::from_mins(3.0));
                assert_eq!(reported, clock);
            }
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
        // The rejection changed nothing: the clock and the run go on.
        assert_eq!(svc.now(), clock);
        let report = svc.run_to_completion();
        assert_eq!(report.total_orders, 0);
    }

    #[test]
    fn input_naming_a_node_outside_the_network_is_refused_at_the_door_and_on_replay() {
        use crate::{replay_wal, DurableDispatch, WriteAheadLog};
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let (inside, nowhere) = (b.node_at(1, 1), NodeId(8 * 8));
        let path = std::env::temp_dir().join(format!("fm-door-{}.wal", std::process::id()));
        let log = WriteAheadLog::create(&path).expect("create wal");
        let mut durable = DurableDispatch::new(service(&engine, &b, GreedyPolicy::new()), log);
        // An off-network restaurant, an off-network customer ...
        for refused in [order(1, nowhere, inside, start), order(2, inside, nowhere, start)] {
            let outcome = durable.submit_order(refused).expect("logged");
            assert_eq!(outcome, SubmitOutcome::NoZoneForLocation, "{refused:?}");
        }
        // ... a driver joining nowhere and an incident centered there.
        let until = start + Duration::from_hours(1.0);
        let incident =
            TrafficDisruption::localized(DisruptionCause::Incident, nowhere, 500.0, 2.0, until);
        let joins = EventKind::VehicleOnShift { vehicle: VehicleId(9), location: nowhere };
        for kind in [joins, EventKind::Traffic(incident)] {
            let outcome = durable.ingest_event(DisruptionEvent::new(start, kind)).expect("logged");
            assert_eq!(outcome, IngestOutcome::NoZoneForLocation, "{kind:?}");
        }
        assert_eq!(durable.target().snapshot().submitted, 0, "nothing was admitted");
        // A refused id is not burned, and the run is undisturbed.
        let good = order(2, inside, b.node_at(5, 1), start);
        assert!(durable.submit_order(good).expect("logged").is_accepted());
        let emitted = durable.advance_to(start + Duration::from_hours(4.0)).expect("logged");
        let (original, log) = durable.into_parts();
        drop(log);
        assert_eq!(original.report().delivered.len(), 1);
        assert_eq!(original.snapshot().vehicles_on_shift, 2, "vehicle 9 never joined");

        // The log holds refused input like any other; replay refuses it again.
        let (_log, read) = WriteAheadLog::open(&path).expect("reopen wal");
        assert_eq!(read.records.len(), 6);
        let mut replayed = service(&engine, &b, GreedyPolicy::new());
        let outputs = replay_wal(&mut replayed, &read.records).expect("replay");
        assert_eq!((outputs.len(), replayed.snapshot()), (emitted.len(), original.snapshot()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "vehicle v4 starts on")]
    fn a_vehicle_starting_off_the_network_is_a_configuration_panic_naming_it() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let _ = DispatchService::new(
            engine,
            vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(4), NodeId(8 * 8))],
            GreedyPolicy::new(),
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
            Duration::from_hours(3.0),
        );
    }

    #[test]
    fn checkpoint_restore_mid_run_completes_identically() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        fn fresh(
            engine: &ShortestPathEngine,
            b: &GridCityBuilder,
            start: TimePoint,
        ) -> DispatchService<FoodMatchPolicy> {
            let mut svc = DispatchService::new(
                engine.clone(),
                vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(7, 7))],
                FoodMatchPolicy::new(),
                DispatchConfig::default(),
                start,
                start + Duration::from_hours(1.0),
                Duration::from_hours(3.0),
            );
            for i in 0..5u64 {
                let _ = svc.submit_order(Order::new(
                    OrderId(i),
                    b.node_at(1 + (i % 3) as usize, 1),
                    b.node_at(5, 1 + (i % 4) as usize),
                    start + Duration::from_mins(1.0 + 4.0 * i as f64),
                    1,
                    Duration::from_mins(8.0),
                ));
            }
            let _ = svc.ingest_event(DisruptionEvent::new(
                start + Duration::from_mins(5.0),
                EventKind::Traffic(TrafficDisruption::city_wide(
                    DisruptionCause::Rain,
                    1.5,
                    start + Duration::from_mins(30.0),
                )),
            ));
            svc
        }
        fn normalized(mut report: crate::SimulationReport) -> crate::SimulationReport {
            for window in &mut report.windows {
                window.compute_secs = 0.0;
                window.overflown = false;
            }
            report
        }

        let golden_report = fresh(&engine, &b, start).run_to_completion();

        // The same run, interrupted mid-disruption by a checkpoint + a
        // restore into a fresh service (round-tripped through bytes).
        let mut svc = fresh(&engine, &b, start);
        let _ = svc.advance_to(start + Duration::from_mins(12.0));
        let checkpoint = svc.checkpoint();
        assert!(!checkpoint.is_finished());
        assert_eq!(checkpoint.clock(), svc.now());
        drop(svc);

        let bytes = checkpoint.to_bytes();
        let revived = ServiceCheckpoint::from_bytes(&bytes).expect("round trip");
        let mut restored =
            DispatchService::restore(engine.clone(), FoodMatchPolicy::new(), &revived);
        assert_eq!(restored.now(), revived.clock());
        let report = restored.run_to_completion();
        assert_eq!(
            normalized(report),
            normalized(golden_report),
            "a restored service must finish the identical run"
        );
        assert!(!engine.has_overlay(), "the engine is handed back clean after restore");
    }
}
