//! Golden equivalence for the sharded router.
//!
//! Two pins:
//!
//! * A [`DispatchRouter`] over a **single zone** covering the whole network
//!   is the bare [`DispatchService`], bit for bit, on a disruption-heavy
//!   lunch peak — same typed output stream, same report. Sharding is pure
//!   composition; one shard must add nothing.
//! * A **multi-zone** router over the metro workload produces bit-identical
//!   output streams and reports whether the lockstep fan-out runs on one
//!   thread, two or eight, over 4 zones and over 2 (fewer zones than
//!   threads, so the zones' own stages fan out too). Concurrency is an
//!   implementation detail, never an outcome.
//!
//! As in `tests/service_equivalence.rs`, only wall-clock window fields
//! (`compute_secs` and the derived `overflown` flag) are normalised before
//! comparing — they measure the host machine, not the dispatch outcome.

use foodmatch_core::Codec;
use foodmatch_core::{DispatchConfig, PolicyKind};
use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
use foodmatch_roadnet::Duration;
use foodmatch_sim::RouterCheckpoint;
use foodmatch_sim::{
    DispatchOutput, DispatchRouter, RoutedOutput, SimulationReport, ZoneId, ZoneMap,
};
use foodmatch_workload::{DisruptionPreset, MetroOptions, MetroScenario};
use integration_tests::tiny_scenario;

/// Zeroes the wall-clock-dependent window fields of a report.
fn normalized(mut report: SimulationReport) -> SimulationReport {
    for window in &mut report.windows {
        window.compute_secs = 0.0;
        window.overflown = false;
    }
    report
}

/// Zeroes the wall-clock-dependent fields inside an output stream.
fn normalized_outputs(outputs: Vec<DispatchOutput>) -> Vec<DispatchOutput> {
    outputs
        .into_iter()
        .map(|output| match output {
            DispatchOutput::WindowClosed { mut stats } => {
                stats.compute_secs = 0.0;
                stats.overflown = false;
                DispatchOutput::WindowClosed { stats }
            }
            other => other,
        })
        .collect()
}

/// Drives a router one accumulation window at a time to completion.
fn drain_router(
    router: &mut DispatchRouter<Box<dyn foodmatch_core::DispatchPolicy>>,
) -> Vec<RoutedOutput> {
    let mut outputs = Vec::new();
    while !router.is_finished() {
        let tick = router.now() + router.config().accumulation_window;
        outputs.extend(router.advance_to(tick));
    }
    outputs
}

#[test]
fn single_zone_router_is_bit_identical_to_the_bare_service() {
    let scenario = tiny_scenario(5);
    let network = scenario.city.network.clone();
    let events = DisruptionPreset::IncidentHeavy.builder(5).build(&scenario);
    assert!(!events.is_empty(), "the disruption profile must actually disrupt");
    let sim = scenario.into_simulation().with_events(events);

    for kind in PolicyKind::ALL {
        // The bare service, driven window by window.
        let mut policy = kind.build();
        let mut service = sim.service(policy.as_mut());
        for order in &sim.orders {
            if order.placed_at >= sim.start && order.placed_at < sim.end {
                assert!(service.submit_order(*order).is_accepted());
            }
        }
        for &event in &sim.events {
            assert!(service.ingest_event(event).is_accepted());
        }
        let mut service_outputs = Vec::new();
        while !service.is_finished() {
            let tick = service.now() + service.config().accumulation_window;
            service_outputs.extend(service.advance_to(tick));
        }
        let service_report = service.report();

        // The same day through a one-zone router.
        let mut router = DispatchRouter::new(
            &network,
            ZoneMap::single(&network),
            sim.vehicle_starts.clone(),
            |_| kind.build(),
            sim.config.clone(),
            sim.start,
            sim.end,
            sim.drain_limit,
        );
        for order in &sim.orders {
            if order.placed_at >= sim.start && order.placed_at < sim.end {
                assert!(router.submit_order(*order).is_accepted());
            }
        }
        for &event in &sim.events {
            assert!(router.ingest_event(event).is_accepted());
        }
        let routed = drain_router(&mut router);
        let report = router.report();

        // Every output carries the only zone's tag; stripped, the stream is
        // the service's stream.
        assert!(routed.iter().all(|o| o.zone == ZoneId(0)));
        let stripped: Vec<DispatchOutput> = routed.into_iter().map(|o| o.output).collect();
        assert_eq!(
            normalized_outputs(stripped),
            normalized_outputs(service_outputs),
            "{kind:?}: one-zone router output stream must equal the bare service's"
        );
        assert_eq!(
            normalized(report.aggregate.clone()),
            normalized(service_report),
            "{kind:?}: one-zone router report must equal the bare service's"
        );
        // And the aggregate of one zone is that zone's report verbatim.
        assert_eq!(report.aggregate, report.zones[0].1);
    }
}

#[test]
fn multi_zone_router_is_thread_count_independent() {
    let mut options = MetroOptions::lunch_peak(9);
    options.orders = 140;
    options.vehicles = 112;
    let metro = MetroScenario::generate(options);

    // A mixed event day: city-wide rain, a zone-local incident, order churn
    // and fleet churn — every routing path of ingest_event.
    let noon = options.start;
    let events = vec![
        DisruptionEvent::new(
            noon + Duration::from_mins(10.0),
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                1.4,
                noon + Duration::from_mins(40.0),
            )),
        ),
        DisruptionEvent::new(
            noon + Duration::from_mins(15.0),
            EventKind::Traffic(TrafficDisruption::localized(
                DisruptionCause::Incident,
                metro.orders[0].restaurant,
                2_000.0,
                3.0,
                noon + Duration::from_mins(50.0),
            )),
        ),
        DisruptionEvent::new(
            noon + Duration::from_mins(20.0),
            EventKind::OrderCancelled { order: metro.orders[3].id },
        ),
        DisruptionEvent::new(
            noon + Duration::from_mins(25.0),
            EventKind::VehicleOffShift { vehicle: metro.vehicle_starts[0].0 },
        ),
    ];

    let run =
        |zones: &ZoneMap, threads: usize| -> (Vec<RoutedOutput>, Vec<(ZoneId, SimulationReport)>) {
            let config = DispatchConfig { num_threads: threads, ..metro.config() };
            let mut router = DispatchRouter::new(
                &metro.network,
                zones.clone(),
                metro.vehicle_starts.clone(),
                |_| PolicyKind::FoodMatch.build(),
                config,
                options.start,
                options.end,
                Duration::from_hours(2.0),
            );
            for order in &metro.orders {
                assert!(router.submit_order(*order).is_accepted());
            }
            for &event in &events {
                assert!(router.ingest_event(event).is_accepted());
            }
            let outputs = drain_router(&mut router);
            (outputs, router.report().zones)
        };

    let strip = |outs: Vec<RoutedOutput>| -> Vec<(ZoneId, DispatchOutput)> {
        outs.into_iter()
            .map(|o| match o.output {
                DispatchOutput::WindowClosed { mut stats } => {
                    stats.compute_secs = 0.0;
                    stats.overflown = false;
                    (o.zone, DispatchOutput::WindowClosed { stats })
                }
                other => (o.zone, other),
            })
            .collect()
    };

    // The metro's 4 zones at widths 2 and 8, and 2 zones at width 8: there
    // the zones are fewer than the width, so each zone's stages fan out on
    // the width its participant was left. (`effective_threads` caps the
    // width at the machine's cores.)
    let four = metro.zone_map();
    let two = metro.grouped_zone_map(2);
    for (zones, widths) in [(&four, &[2, 8][..]), (&two, &[8][..])] {
        let (serial_out, serial_zones) = run(zones, 1);
        assert!(
            serial_out.iter().any(|o| matches!(o.output, DispatchOutput::Delivered { .. })),
            "the metro day must deliver something"
        );
        let zones_seen: std::collections::HashSet<ZoneId> =
            serial_out.iter().map(|o| o.zone).collect();
        assert!(zones_seen.len() > 1, "a metro day must touch more than one zone");
        for &threads in widths {
            let (parallel_out, parallel_zones) = run(zones, threads);
            let what = format!("{} zones, {threads} threads", zones.zone_count());
            // The tagged output streams must agree element by element…
            assert_eq!(
                strip(serial_out.clone()),
                strip(parallel_out),
                "{what}: the merged output stream must not depend on the thread count"
            );
            // …and so must every zone's report.
            assert_eq!(serial_zones.len(), parallel_zones.len());
            for ((zone_a, report_a), (zone_b, report_b)) in
                serial_zones.iter().cloned().zip(parallel_zones)
            {
                assert_eq!(zone_a, zone_b);
                assert_eq!(
                    normalized(report_a),
                    normalized(report_b),
                    "{what}, {zone_a}: per-zone reports must not depend on the thread count"
                );
            }
        }
    }
}

/// The router keeps no clock of its own: at every tick its clock is the
/// latest zone clock and it has finished exactly when every zone has —
/// also on the ticks where some zones have finished and others have not.
/// A checkpoint taken on such a tick resumes the run identically.
#[test]
fn the_router_clock_is_the_latest_zone_clock_and_resumes_from_a_mixed_tick() {
    let mut options = MetroOptions::lunch_peak(9);
    options.orders = 140;
    let metro = MetroScenario::generate(options);
    let config = DispatchConfig { num_threads: 2, ..metro.config() };
    let mut router = DispatchRouter::new(
        &metro.network,
        metro.zone_map(),
        metro.vehicle_starts.clone(),
        |_| PolicyKind::FoodMatch.build(),
        config,
        options.start,
        options.end,
        Duration::from_hours(2.0),
    );
    for order in &metro.orders {
        assert!(router.submit_order(*order).is_accepted());
    }

    let (mut outputs, mut mixed) = (Vec::new(), None);
    while !router.is_finished() {
        let tick = router.now() + router.config().accumulation_window;
        outputs.extend(router.advance_to(tick));
        let zones = router.snapshot().zones;
        assert_eq!(Some(router.now()), zones.iter().map(|(_, z)| z.now).max());
        let finished = zones.iter().filter(|(_, z)| z.finished).count();
        assert_eq!(router.is_finished(), finished == zones.len());
        if mixed.is_none() && finished > 0 && finished < zones.len() {
            mixed = Some((router.checkpoint().to_bytes(), outputs.len()));
        }
    }
    let (bytes, emitted) = mixed.expect("some tick has finished and unfinished zones");

    let checkpoint =
        RouterCheckpoint::from_bytes(&bytes).expect("decode the mixed-tick checkpoint");
    let mut restored = DispatchRouter::restore(
        &metro.network,
        metro.zone_map(),
        |_| PolicyKind::FoodMatch.build(),
        &checkpoint,
    )
    .expect("restore");
    assert!(!restored.is_finished());
    let rest = drain_router(&mut restored);
    let tagged = |outs: &[RoutedOutput]| -> Vec<(ZoneId, DispatchOutput)> {
        let zones = outs.iter().map(|o| o.zone);
        zones.zip(normalized_outputs(outs.iter().map(|o| o.output).collect())).collect()
    };
    assert_eq!(tagged(&rest), tagged(&outputs[emitted..]), "the rest of the routed stream");
    for ((zone, resumed), (_, uninterrupted)) in
        restored.report().zones.into_iter().zip(router.report().zones)
    {
        assert_eq!(normalized(resumed), normalized(uninterrupted), "{zone}: report");
    }
}
