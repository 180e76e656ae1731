//! The batch entry point: replaying a complete scenario through the online
//! [`DispatchService`].
//!
//! [`Simulation`] bundles an immutable scenario — network, order stream,
//! fleet, configuration, horizon, disruption events — and
//! [`Simulation::run`] replays it: every order and event is submitted to a
//! fresh [`DispatchService`] up front and the service is advanced through
//! the whole horizon plus a drain phase (still assigning leftovers until
//! every order is delivered or rejected). The window-by-window mechanics —
//! Fig. 5's loop of vehicle advancement, order arrival, snapshotting, the
//! policy call, assignment application, and disruption replay — live in
//! [`crate::service`]; a golden test (`tests/service_equivalence.rs`) pins
//! the batch replay bit-identical to externally-driven incremental
//! stepping.

use crate::metrics::SimulationReport;
use crate::service::DispatchService;
use foodmatch_core::{DispatchConfig, DispatchPolicy, Order, VehicleId};
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::{Duration, NodeId, ShortestPathEngine, TimePoint};

/// A complete simulation scenario: the network, the order stream, and the
/// fleet's starting positions.
#[derive(Clone, Debug)]
pub struct Simulation {
    /// Shared shortest-path engine over the scenario's road network.
    pub engine: ShortestPathEngine,
    /// The full order stream (any order, in any order; sorted internally).
    pub orders: Vec<Order>,
    /// Starting node of every vehicle.
    pub vehicle_starts: Vec<(VehicleId, NodeId)>,
    /// Dispatcher configuration (window length, capacities, toggles…).
    pub config: DispatchConfig,
    /// When the simulated day starts.
    pub start: TimePoint,
    /// When the workload horizon ends (orders placed later are ignored).
    pub end: TimePoint,
    /// How long after `end` the drain phase may run before giving up.
    pub drain_limit: Duration,
    /// Time-stamped disruption events applied while the simulation runs
    /// (empty = the static world of the plain scenarios).
    pub events: Vec<DisruptionEvent>,
}

impl Simulation {
    /// Creates a simulation with a three-hour drain limit.
    pub fn new(
        engine: ShortestPathEngine,
        orders: Vec<Order>,
        vehicle_starts: Vec<(VehicleId, NodeId)>,
        config: DispatchConfig,
        start: TimePoint,
        end: TimePoint,
    ) -> Self {
        assert!(end > start, "simulation horizon must be non-empty");
        Simulation {
            engine,
            orders,
            vehicle_starts,
            config,
            start,
            end,
            drain_limit: Duration::from_hours(3.0),
            events: Vec::new(),
        }
    }

    /// Attaches a disruption-event stream to the scenario (builder style).
    /// Events are replayed deterministically on every [`Self::run`].
    pub fn with_events(mut self, events: Vec<DisruptionEvent>) -> Self {
        self.events = events;
        self
    }

    /// Runs the scenario under `policy` and returns the metrics report.
    ///
    /// ## Re-runnability contract
    ///
    /// `run` takes `&self` and keeps the scenario immutable: every call
    /// builds a fresh [`DispatchService`] (which owns all mutable run state
    /// explicitly), so the same `Simulation` can be run repeatedly — with
    /// different policies or configurations — for side-by-side comparisons.
    /// The shared [`ShortestPathEngine`] is the one deliberate exception:
    /// its caches persist across runs (pure speed-up, never answers), and
    /// any traffic overlay is cleared on service construction and again on
    /// completion, so each run starts from, and hands back, the unperturbed
    /// network.
    ///
    /// This is a thin batch driver over the online [`DispatchService`]: it
    /// submits the scenario's in-horizon orders and its full event stream up
    /// front, then drains the service through the drain phase. The service
    /// owns all mutable run state (`&mut self` stepping), which is what
    /// keeps `&self` here honest.
    pub fn run(&self, policy: &mut dyn DispatchPolicy) -> SimulationReport {
        let mut service = self.service(policy);
        for order in &self.orders {
            if order.placed_at >= self.start && order.placed_at < self.end {
                // Scenario streams may legitimately repeat ids across runs;
                // the batch driver keeps the old "first submission wins"
                // semantics and drops refused duplicates silently.
                let _ = service.submit_order(*order);
            }
        }
        for &event in &self.events {
            let _ = service.ingest_event(event);
        }
        service.run_to_completion()
    }

    /// An idle [`DispatchService`] configured from this scenario — shared
    /// engine handle, the scenario's fleet, horizon, drain limit and
    /// configuration — with nothing submitted yet. This is the online entry
    /// point for drivers that want the scenario's world but their own
    /// demand: stream orders in via
    /// [`submit_order`](DispatchService::submit_order) (from an
    /// `OrderSource`, a replay, anywhere) and step with
    /// [`advance_to`](DispatchService::advance_to).
    pub fn service<P: DispatchPolicy>(&self, policy: P) -> DispatchService<P> {
        DispatchService::new(
            self.engine.clone(),
            self.vehicle_starts.clone(),
            policy,
            self.config.clone(),
            self.start,
            self.end,
            self.drain_limit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::policies::{FoodMatchPolicy, GreedyPolicy, KuhnMunkresPolicy};
    use foodmatch_core::OrderId;
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

    fn small_scenario(engine: &ShortestPathEngine, b: &GridCityBuilder) -> Simulation {
        let start = TimePoint::from_hms(12, 0, 0);
        let orders = vec![
            order(1, b.node_at(1, 1), b.node_at(5, 1), start + Duration::from_mins(1.0)),
            order(2, b.node_at(1, 2), b.node_at(5, 2), start + Duration::from_mins(2.0)),
            order(3, b.node_at(6, 6), b.node_at(2, 6), start + Duration::from_mins(10.0)),
            order(4, b.node_at(6, 5), b.node_at(2, 5), start + Duration::from_mins(12.0)),
        ];
        let vehicles = vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(7, 7))];
        Simulation::new(
            engine.clone(),
            orders,
            vehicles,
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
        )
    }

    #[test]
    fn every_order_is_delivered_with_ample_supply() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        for mut policy in [
            Box::new(GreedyPolicy::new()) as Box<dyn DispatchPolicy>,
            Box::new(KuhnMunkresPolicy::new()),
            Box::new(FoodMatchPolicy::new()),
        ] {
            let report = sim.run(policy.as_mut());
            assert_eq!(report.total_orders, 4, "{}", report.policy);
            assert_eq!(report.delivered.len(), 4, "{} delivered", report.policy);
            assert!(report.rejected.is_empty(), "{} rejected", report.policy);
            assert!(report.undelivered.is_empty(), "{} undelivered", report.policy);
            assert!(report.total_km() > 0.0);
            // Every delivery happens after its order was placed.
            for d in &report.delivered {
                assert!(d.delivered_at > d.placed_at);
            }
        }
    }

    #[test]
    fn deliveries_are_unique_and_account_for_all_orders() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        let report = sim.run(&mut FoodMatchPolicy::new());
        let mut ids: Vec<u64> = report.delivered.iter().map(|d| d.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), report.delivered.len(), "duplicate deliveries");
        assert_eq!(
            report.delivered.len() + report.rejected.len() + report.undelivered.len(),
            report.total_orders
        );
    }

    #[test]
    fn unreachable_supply_leads_to_rejections() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        // No vehicles at all: every order must eventually be rejected.
        let sim = Simulation::new(
            engine.clone(),
            vec![order(1, b.node_at(1, 1), b.node_at(5, 1), start + Duration::from_mins(1.0))],
            vec![],
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
        );
        let report = sim.run(&mut GreedyPolicy::new());
        assert_eq!(report.delivered.len(), 0);
        assert_eq!(report.rejected.len(), 1);
        assert!((report.rejection_rate_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn runs_are_deterministic() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        let a = sim.run(&mut FoodMatchPolicy::new());
        let c = sim.run(&mut FoodMatchPolicy::new());
        assert_eq!(a.delivered.len(), c.delivered.len());
        assert!((a.total_xdt_hours() - c.total_xdt_hours()).abs() < 1e-9);
        assert!((a.total_km() - c.total_km()).abs() < 1e-9);
    }

    #[test]
    fn windows_are_recorded_with_the_configured_cadence() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        let report = sim.run(&mut GreedyPolicy::new());
        assert!(!report.windows.is_empty());
        for w in &report.windows {
            assert!(w.vehicles <= 2);
            assert!(w.compute_secs >= 0.0);
        }
    }

    #[test]
    fn overloaded_fleet_rejects_the_overflow() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        // Ten simultaneous orders, one vehicle with MAXO = 3 and a short
        // rejection deadline: most orders cannot be served in time.
        let orders: Vec<Order> = (0..10)
            .map(|i| order(i, b.node_at(0, 4), b.node_at(7, 4), start + Duration::from_mins(1.0)))
            .collect();
        let config =
            DispatchConfig { rejection_deadline: Duration::from_mins(10.0), ..Default::default() };
        let sim = Simulation::new(
            engine.clone(),
            orders,
            vec![(VehicleId(0), b.node_at(0, 0))],
            config,
            start,
            start + Duration::from_mins(30.0),
        );
        let report = sim.run(&mut FoodMatchPolicy::new());
        assert!(report.rejected.len() >= 4, "expected rejections, got {}", report.rejected.len());
        assert!(!report.delivered.is_empty(), "the single vehicle should deliver something");
        assert_eq!(report.delivered.len() + report.rejected.len(), 10);
    }

    #[test]
    fn cancelled_orders_never_deliver_and_routes_are_repaired() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        let start = sim.start;
        // Order 1 is cancelled before it even reaches a window; order 3 is
        // cancelled after assignment but before pickup (its prep time keeps
        // the food off the vehicle until well past the event).
        let sim = sim.with_events(vec![
            DisruptionEvent::new(
                start + Duration::from_mins(2.0),
                EventKind::OrderCancelled { order: OrderId(1) },
            ),
            DisruptionEvent::new(
                start + Duration::from_mins(13.0),
                EventKind::OrderCancelled { order: OrderId(3) },
            ),
        ]);
        for mut policy in [
            Box::new(GreedyPolicy::new()) as Box<dyn DispatchPolicy>,
            Box::new(FoodMatchPolicy::new()),
        ] {
            let report = sim.run(policy.as_mut());
            let mut cancelled: Vec<u64> = report.cancelled.iter().map(|o| o.0).collect();
            cancelled.sort_unstable();
            assert_eq!(cancelled, vec![1, 3], "{}", report.policy);
            for d in &report.delivered {
                assert!(
                    !report.cancelled.contains(&d.id),
                    "{}: cancelled order {} was delivered",
                    report.policy,
                    d.id
                );
            }
            // The repaired routes still serve the surviving orders.
            assert_eq!(report.delivered.len(), 2, "{}", report.policy);
            assert!(report.undelivered.is_empty(), "{}", report.policy);
            assert_eq!(
                report.delivered.len()
                    + report.rejected.len()
                    + report.cancelled.len()
                    + report.undelivered.len(),
                report.total_orders,
                "{}",
                report.policy
            );
        }
    }

    #[test]
    fn traffic_disruptions_inflate_xdt_and_are_attributed() {
        let (engine, b) = grid();
        let calm = small_scenario(&engine, &b);
        let calm_report = calm.run(&mut FoodMatchPolicy::new());

        let disruption = TrafficDisruption::city_wide(
            DisruptionCause::Rain,
            3.0,
            calm.start + Duration::from_hours(4.0),
        );
        let disrupted = small_scenario(&engine, &b).with_events(vec![DisruptionEvent::new(
            calm.start + Duration::from_secs_f64(30.0),
            EventKind::Traffic(disruption),
        )]);
        let report = disrupted.run(&mut FoodMatchPolicy::new());

        assert_eq!(report.delivered.len(), 4, "slow ≠ undeliverable");
        assert!(
            report.total_xdt_hours() > calm_report.total_xdt_hours() + 1e-6,
            "a 3x city-wide slowdown must show up as XDT: {} vs {}",
            report.total_xdt_hours(),
            calm_report.total_xdt_hours()
        );
        assert!(report.disrupted_window_pct() > 0.0);
        assert!(report.delivered_during_disruption() > 0);
        assert!(report.xdt_hours_disrupted() > 0.0);
        // The engine is handed back clean for the next run.
        assert!(!engine.has_overlay());
    }

    #[test]
    fn mid_flight_slowdowns_retime_in_flight_itineraries() {
        let (engine, b) = grid();
        let calm = small_scenario(&engine, &b);
        let calm_report = calm.run(&mut GreedyPolicy::new());
        let calm_last = calm_report.delivered.iter().map(|d| d.delivered_at).max().unwrap();

        // The slowdown starts well after the first assignments: vehicles are
        // already en route on itineraries expanded at calm speeds, so only
        // re-timing those itineraries can make the disruption bite.
        let disrupted = small_scenario(&engine, &b).with_events(vec![DisruptionEvent::new(
            calm.start + Duration::from_mins(6.0),
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                8.0,
                calm.start + Duration::from_hours(4.0),
            )),
        )]);
        let report = disrupted.run(&mut GreedyPolicy::new());
        let disrupted_last = report.delivered.iter().map(|d| d.delivered_at).max().unwrap();
        assert!(
            disrupted_last > calm_last + Duration::from_mins(1.0),
            "an 8x slowdown hitting vehicles mid-drive must delay deliveries \
             ({disrupted_last:?} vs calm {calm_last:?})"
        );
    }

    #[test]
    fn off_shift_fleet_rejects_everything() {
        let (engine, b) = grid();
        let sim = small_scenario(&engine, &b);
        let start = sim.start;
        let sim = sim.with_events(vec![
            DisruptionEvent::new(
                start + Duration::from_secs_f64(30.0),
                EventKind::VehicleOffShift { vehicle: VehicleId(0) },
            ),
            DisruptionEvent::new(
                start + Duration::from_secs_f64(30.0),
                EventKind::VehicleOffShift { vehicle: VehicleId(1) },
            ),
        ]);
        let report = sim.run(&mut FoodMatchPolicy::new());
        assert_eq!(report.delivered.len(), 0);
        assert_eq!(report.rejected.len(), report.total_orders);
    }

    #[test]
    fn mid_day_shift_start_adds_serving_capacity() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let orders = vec![
            order(1, b.node_at(1, 1), b.node_at(5, 1), start + Duration::from_mins(1.0)),
            order(2, b.node_at(1, 2), b.node_at(5, 2), start + Duration::from_mins(2.0)),
        ];
        // No initial fleet at all; a driver starts a shift a minute in.
        let sim = Simulation::new(
            engine.clone(),
            orders,
            vec![],
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
        )
        .with_events(vec![DisruptionEvent::new(
            start + Duration::from_mins(1.0),
            EventKind::VehicleOnShift { vehicle: VehicleId(9), location: b.node_at(0, 0) },
        )]);
        let report = sim.run(&mut FoodMatchPolicy::new());
        assert_eq!(report.delivered.len(), 2, "the late starter must serve the day");
    }

    #[test]
    fn prep_delays_push_deliveries_back() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let placed = start + Duration::from_mins(1.0);
        let o = order(1, b.node_at(1, 1), b.node_at(5, 1), placed);
        let sim = Simulation::new(
            engine.clone(),
            vec![o],
            vec![(VehicleId(0), b.node_at(0, 0))],
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
        )
        .with_events(vec![DisruptionEvent::new(
            start + Duration::from_mins(2.0),
            EventKind::PrepDelay { order: OrderId(1), extra: Duration::from_mins(20.0) },
        )]);
        let report = sim.run(&mut GreedyPolicy::new());
        assert_eq!(report.delivered.len(), 1);
        // Original prep is 8 min; with +20 the food leaves no earlier than
        // placed + 28 min.
        assert!(report.delivered[0].delivered_at > placed + Duration::from_mins(28.0));
        assert!(report.delivered[0].xdt > Duration::from_mins(15.0));
    }

    #[test]
    fn disrupted_runs_are_deterministic() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        let events = vec![
            DisruptionEvent::new(
                start + Duration::from_secs_f64(30.0),
                EventKind::Traffic(TrafficDisruption::localized(
                    DisruptionCause::Incident,
                    b.node_at(3, 3),
                    900.0,
                    2.5,
                    start + Duration::from_mins(40.0),
                )),
            ),
            DisruptionEvent::new(
                start + Duration::from_mins(2.0),
                EventKind::OrderCancelled { order: OrderId(2) },
            ),
            DisruptionEvent::new(
                start + Duration::from_mins(5.0),
                EventKind::VehicleOffShift { vehicle: VehicleId(1) },
            ),
        ];
        let sim = small_scenario(&engine, &b).with_events(events);
        let a = sim.run(&mut FoodMatchPolicy::new());
        let c = sim.run(&mut FoodMatchPolicy::new());
        assert_eq!(a.delivered, c.delivered);
        assert_eq!(a.rejected, c.rejected);
        assert_eq!(a.cancelled, c.cancelled);
        assert!((a.total_km() - c.total_km()).abs() < 1e-12);
        assert!((a.total_xdt_hours() - c.total_xdt_hours()).abs() < 1e-12);
    }

    #[test]
    fn reshuffling_never_loses_orders() {
        let (engine, b) = grid();
        let start = TimePoint::from_hms(12, 0, 0);
        // A burst of orders across two windows so reshuffling has something
        // to reconsider.
        let mut orders = Vec::new();
        for i in 0..6 {
            orders.push(order(
                i,
                b.node_at((i % 3) as usize + 1, 1),
                b.node_at(6, (i % 4) as usize + 2),
                start + Duration::from_mins(1.0 + i as f64),
            ));
        }
        let sim = Simulation::new(
            engine.clone(),
            orders,
            vec![(VehicleId(0), b.node_at(0, 0)), (VehicleId(1), b.node_at(7, 7))],
            DispatchConfig::default(),
            start,
            start + Duration::from_hours(1.0),
        );
        let report = sim.run(&mut FoodMatchPolicy::new());
        assert_eq!(report.delivered.len() + report.rejected.len() + report.undelivered.len(), 6);
        assert!(report.undelivered.is_empty());
    }
}
