//! Integration tests for the dynamic-events subsystem: overlay-oracle
//! equivalence with a rebuilt graph, deterministic replay of disrupted days,
//! cancellation invariants, and the acceptance check that a disrupted day
//! measurably changes policy metrics vs. the calm baseline.

use foodmatch_core::{DispatchConfig, FoodMatchPolicy, GreedyPolicy, PolicyKind};
use foodmatch_events::{
    DisruptionCause, DisruptionEvent, EventKind, EventSchedule, TrafficDisruption,
};
use foodmatch_roadnet::generators::{GridCityBuilder, RandomCityBuilder};
use foodmatch_roadnet::{
    dijkstra, Duration, EdgeId, NodeId, RoadNetwork, RoadNetworkBuilder, ShortestPathEngine,
    TimePoint, TrafficOverlay,
};
use foodmatch_sim::{Simulation, SimulationReport};
use foodmatch_workload::DisruptionPreset;
use integration_tests::small_city_scenario;

/// Rebuilds `net` with every edge physically lengthened by its overlay
/// multiplier — the "from-scratch mutated graph" reference: plain Dijkstra
/// on it *is* the perturbed oracle.
fn rebuilt_with_overlay(net: &RoadNetwork, overlay: &TrafficOverlay) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new().congestion(net.congestion().clone());
    for node in net.node_ids() {
        b.add_node(net.position(node));
    }
    for eid in net.edge_ids() {
        let e = net.edge(eid);
        b.add_edge(e.from, e.to, e.length_m * overlay.multiplier(eid), e.class);
    }
    b.build()
}

/// Acceptance criterion: the engine answers perturbed-graph travel times
/// through the delta overlay as a freshly built plain-Dijkstra oracle on the
/// mutated graph does — to a tolerance, since lengthening an edge rounds
/// where multiplying its weight does — and as the memo-free overlaid search
/// does, bit for bit.
#[test]
fn overlay_oracle_matches_rebuilt_graph_for_all_backends() {
    let b = GridCityBuilder::new(7, 7);
    let net = b.build();
    let t = TimePoint::from_hms(13, 0, 0);

    // A realistic overlay: one localized incident plus a city-wide surge,
    // rendered through the same EventSchedule machinery the simulator uses.
    let mut schedule = EventSchedule::new(vec![
        DisruptionEvent::new(
            TimePoint::from_hms(12, 50, 0),
            EventKind::Traffic(TrafficDisruption::localized(
                DisruptionCause::Incident,
                b.node_at(3, 3),
                600.0,
                2.8,
                TimePoint::from_hms(14, 0, 0),
            )),
        ),
        DisruptionEvent::new(
            TimePoint::from_hms(12, 55, 0),
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                1.3,
                TimePoint::from_hms(15, 0, 0),
            )),
        ),
    ]);
    schedule.advance_to(t);
    let overlay = schedule.overlay(&net);
    assert!(!overlay.is_empty());

    let reference = rebuilt_with_overlay(&net, &overlay);
    let bits = |d: Option<Duration>| d.map(|d| d.as_secs_f64().to_bits());
    let engine = ShortestPathEngine::cached(net.clone());
    engine.set_overlay(overlay.clone());
    for source in net.node_ids().step_by(3) {
        let targets: Vec<NodeId> = net.node_ids().step_by(4).collect();
        let batch = engine.travel_times_to_many(source, &targets, t);
        for (i, &target) in targets.iter().enumerate() {
            let expected = dijkstra::one_to_many(&reference, source, &[target], t, None)[0];
            let got = engine.travel_time(source, target, t);
            let overlaid = dijkstra::one_to_many(&net, source, &[target], t, Some(&overlay))[0];
            assert_eq!(bits(got), bits(overlaid), "{source}->{target}");
            assert_eq!(bits(batch[i]), bits(overlaid), "{source}->{target} (to_many)");
            match (expected, got) {
                (None, None) => {}
                (Some(want), Some(point)) => assert!(
                    (want.as_secs_f64() - point.as_secs_f64()).abs() < 1e-6,
                    "{source}->{target}: {want:?} vs {point:?}"
                ),
                other => panic!("{source}->{target}: {other:?}"),
            }
        }
    }
}

/// The engine searches a table rendered from the overlay, callers hold the
/// sparse map: the two must be one set of weights. Every factor here is a
/// power of two, for which scaling commutes with every rounding — so the
/// physically lengthened network *is* the overlaid one bit for bit, and the
/// comparison needs no tolerance.
#[test]
fn rendered_overlay_table_equals_the_sparse_map_bit_for_bit() {
    let t = TimePoint::from_hms(19, 30, 0);
    let bits = |d: Option<Duration>| d.map(|d| d.as_secs_f64().to_bits());
    let factor_of = |eid: EdgeId| if eid.0 % 5 == 0 { 4.0 } else { 2.0 };
    // `engine` answers, edge by edge and sweep by sweep, as plain Dijkstra
    // does on `reference`.
    let assert_answers_like = |engine: &ShortestPathEngine, reference: &RoadNetwork, what: &str| {
        for eid in reference.edge_ids() {
            let want = reference.travel_time(eid, t).as_secs_f64().to_bits();
            assert_eq!(engine.edge_travel_time(eid, t).as_secs_f64().to_bits(), want, "{what}");
        }
        let targets: Vec<NodeId> = reference.node_ids().step_by(3).collect();
        for source in reference.node_ids().step_by(17) {
            let got = engine.travel_times_to_many(source, &targets, t);
            let want = dijkstra::one_to_many(reference, source, &targets, t, None);
            for ((&target, got), want) in targets.iter().zip(got).zip(want) {
                assert_eq!(bits(got), bits(want), "{what}: {source}->{target}");
            }
        }
    };

    for seed in [5u64, 17, 41] {
        let net = RandomCityBuilder::new(200).seed(seed).radius_m(1_500.0).build();
        let center = net.node_ids().nth(seed as usize).expect("200 nodes");
        let mut schedule = EventSchedule::new(vec![DisruptionEvent::new(
            t,
            EventKind::Traffic(TrafficDisruption::localized(
                DisruptionCause::Incident,
                center,
                300.0,
                4.0,
                TimePoint::from_hms(20, 30, 0),
            )),
        )]);
        schedule.advance_to(t);
        let incident = schedule.overlay(&net);
        assert!(!incident.is_empty() && incident.len() < net.edge_count(), "seed {seed}");
        let mut every_third = TrafficOverlay::new();
        let mut every_edge = TrafficOverlay::new();
        for eid in net.edge_ids() {
            if eid.0 % 3 == 0 {
                every_third.slow_edge(eid, factor_of(eid));
            }
            every_edge.slow_edge(eid, factor_of(eid));
        }

        let overlays =
            [("incident", &incident), ("every third", &every_third), ("every edge", &every_edge)];
        for (name, overlay) in overlays {
            let engine = ShortestPathEngine::cached(net.clone());
            engine.set_overlay(overlay.clone());
            let reference = rebuilt_with_overlay(&net, overlay);
            assert_answers_like(&engine, &reference, &format!("seed {seed}, {name}"));
        }

        // A → B → none on one engine: the table is built whole per
        // generation, so no multiplier of A survives into B's answers (B
        // leaves two edges in three alone), and none at all into the
        // cleared engine's.
        let engine = ShortestPathEngine::cached(net.clone());
        engine.set_overlay(every_edge.clone());
        assert_answers_like(&engine, &rebuilt_with_overlay(&net, &every_edge), "A");
        engine.set_overlay(every_third.clone());
        assert_answers_like(&engine, &rebuilt_with_overlay(&net, &every_third), "B after A");
        engine.clear_overlay();
        assert_answers_like(&engine, &net, "cleared");
        assert_answers_like(&ShortestPathEngine::cached(net.clone()), &net, "fresh");
    }
}

fn disrupted_simulation(seed: u64, preset: DisruptionPreset, num_threads: usize) -> Simulation {
    let scenario = small_city_scenario(seed);
    let events = preset.builder(seed).build(&scenario);
    let config = DispatchConfig { num_threads, ..scenario.default_config() };
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    Simulation::new(
        engine,
        scenario.orders.clone(),
        scenario.vehicle_starts.clone(),
        config,
        scenario.options.start,
        scenario.options.end,
    )
    .with_events(events)
}

/// The parts of a report that must replay bit-for-bit (wall-clock window
/// compute times are excluded — they are measurements, not simulation state).
fn assert_bit_identical(a: &SimulationReport, b: &SimulationReport) {
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.cancelled, b.cancelled);
    assert_eq!(a.undelivered, b.undelivered);
    assert_eq!(a.rejected_during_disruption, b.rejected_during_disruption);
    assert_eq!(a.distance_by_load_m, b.distance_by_load_m, "driven meters must match exactly");
    assert_eq!(a.waiting_by_slot, b.waiting_by_slot);
    assert_eq!(a.windows.len(), b.windows.len());
    for (wa, wb) in a.windows.iter().zip(&b.windows) {
        assert_eq!(wa.closed_at, wb.closed_at);
        assert_eq!(wa.orders, wb.orders);
        assert_eq!(wa.vehicles, wb.vehicles);
        assert_eq!(wa.assigned, wb.assigned);
        assert_eq!(wa.disrupted, wb.disrupted);
    }
}

/// Acceptance criterion: same seed + same thread count ⇒ bit-identical
/// reports with disruptions enabled — and the thread count itself must not
/// change the outcome either (the fan-out is deterministic).
#[test]
fn disrupted_runs_replay_bit_identically_across_thread_counts() {
    let serial_a = disrupted_simulation(3, DisruptionPreset::IncidentHeavy, 1)
        .run(&mut FoodMatchPolicy::new());
    let serial_b = disrupted_simulation(3, DisruptionPreset::IncidentHeavy, 1)
        .run(&mut FoodMatchPolicy::new());
    assert_bit_identical(&serial_a, &serial_b);

    let parallel_a = disrupted_simulation(3, DisruptionPreset::IncidentHeavy, 4)
        .run(&mut FoodMatchPolicy::new());
    let parallel_b = disrupted_simulation(3, DisruptionPreset::IncidentHeavy, 4)
        .run(&mut FoodMatchPolicy::new());
    assert_bit_identical(&parallel_a, &parallel_b);
    assert_bit_identical(&serial_a, &parallel_a);

    assert!(serial_a.disrupted_window_pct() > 0.0, "incidents should disrupt windows");
}

/// Acceptance criterion: a disrupted day measurably changes policy metrics
/// vs. the calm baseline.
#[test]
fn disrupted_day_measurably_changes_policy_metrics() {
    for policy in [PolicyKind::Greedy, PolicyKind::FoodMatch] {
        let calm = disrupted_simulation(3, DisruptionPreset::Calm, 1).run(policy.build().as_mut());
        let rainy =
            disrupted_simulation(3, DisruptionPreset::RainyEvening, 1).run(policy.build().as_mut());
        assert_eq!(calm.total_orders, rainy.total_orders, "same workload under both skies");
        assert!(calm.cancelled.is_empty());
        assert_eq!(calm.disrupted_window_pct(), 0.0);
        assert!(rainy.disrupted_window_pct() > 0.0, "{policy:?}: rain must reach the windows");
        assert!(
            rainy.total_xdt_hours() > calm.total_xdt_hours() + 1e-6,
            "{policy:?}: a city-wide slowdown must inflate XDT ({} vs {})",
            rainy.total_xdt_hours(),
            calm.total_xdt_hours()
        );
        assert!(
            rainy.xdt_hours_disrupted() > 0.0,
            "{policy:?}: XDT must be attributed to disruption windows"
        );
    }
}

/// Acceptance criterion: cancellation invariants. A cancelled order never
/// appears among the delivered, the fleet keeps serving the surviving
/// orders, and the report's totals stay consistent.
#[test]
fn cancellation_invariants_hold_under_churn() {
    let mut simulation = disrupted_simulation(3, DisruptionPreset::IncidentHeavy, 1);
    // On top of the preset's random churn, cancel the first two orders
    // explicitly (30 s after placement, guaranteed pre-pickup) so the test
    // can never go vacuous on an unlucky seed.
    let scenario = small_city_scenario(3);
    for order in scenario.orders.iter().take(2) {
        simulation.events.push(DisruptionEvent::new(
            order.placed_at + foodmatch_roadnet::Duration::from_secs_f64(30.0),
            EventKind::OrderCancelled { order: order.id },
        ));
    }
    let report = simulation.run(&mut GreedyPolicy::new());
    assert!(report.cancelled.len() >= 2, "expected cancellations from incident_heavy");
    for cancelled in &report.cancelled {
        assert!(
            !report.delivered.iter().any(|d| d.id == *cancelled),
            "cancelled order {cancelled} was delivered"
        );
        assert!(!report.rejected.contains(cancelled), "order {cancelled} double-accounted");
    }
    // No duplicate deliveries, and the four buckets partition the workload.
    let mut ids: Vec<u64> = report.delivered.iter().map(|d| d.id.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), report.delivered.len());
    assert_eq!(
        report.delivered.len()
            + report.rejected.len()
            + report.cancelled.len()
            + report.undelivered.len(),
        report.total_orders
    );
    assert!(
        report.delivered.len() > report.cancelled.len(),
        "the repaired routes must still serve the bulk of the workload"
    );
}
