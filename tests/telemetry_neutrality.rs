//! Telemetry neutrality: recording must never change a dispatch outcome.
//!
//! Every instrumented layer re-runs its golden workload twice — once with
//! no recorder installed, once with a live [`foodmatch_telemetry`]
//! recorder — and the typed output streams and reports must match bit for
//! bit (after zeroing the wall-clock window fields, exactly as the
//! equivalence suites do). Four workloads cover the stack:
//!
//! * the bare [`DispatchService`] on a disruption-heavy lunch hour;
//! * a one-zone [`DispatchRouter`] over the same day;
//! * a four-thread multi-zone metro router (the parallel fan-out path,
//!   including the per-shard wall timing the recorder turns on);
//! * the same service day behind [`DurableDispatch`] over a
//!   [`FlushPolicy::Window`] WAL, with one checkpoint saved mid-day.
//!
//! The live runs must also actually observe something: the trace has to
//! contain engine, solver, shard, service, wal and checkpoint spans, and
//! the registry has to hold engine-query and solver-latency samples — a
//! silently inert recorder would make the equality above vacuous.
//!
//! This file stays a single sequential `#[test]`: the recorder is
//! process-global, so no other test in this binary may race an
//! install/uninstall cycle.

use foodmatch_core::PolicyKind;
use foodmatch_sim::{
    save_checkpoint, DispatchOutput, DispatchRouter, DurableDispatch, FlushPolicy, RoutedOutput,
    SimulationReport, WriteAheadLog, ZoneId, ZoneMap,
};
use foodmatch_telemetry as telemetry;
use foodmatch_workload::{DisruptionPreset, MetroOptions, MetroScenario};
use integration_tests::tiny_scenario;
use std::collections::HashSet;

/// Zeroes the wall-clock-dependent window fields of a report.
fn normalized(mut report: SimulationReport) -> SimulationReport {
    for window in &mut report.windows {
        window.compute_secs = 0.0;
        window.overflown = false;
    }
    report
}

/// Zeroes the wall-clock-dependent fields inside a tagged output stream.
fn normalized_outputs(outputs: Vec<RoutedOutput>) -> Vec<(ZoneId, DispatchOutput)> {
    outputs
        .into_iter()
        .map(|o| match o.output {
            DispatchOutput::WindowClosed { mut stats } => {
                stats.compute_secs = 0.0;
                stats.overflown = false;
                (o.zone, DispatchOutput::WindowClosed { stats })
            }
            other => (o.zone, other),
        })
        .collect()
}

/// Same normalisation for an untagged service stream.
fn normalized_service_outputs(outputs: Vec<DispatchOutput>) -> Vec<DispatchOutput> {
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

#[test]
fn telemetry_is_strictly_observational() {
    assert!(!telemetry::active(), "this test must own the global recorder");
    let recorder = telemetry::Recorder::new();

    // Each workload runs once bare and once under the live recorder; all
    // components are constructed inside the run closure, so the live pass
    // holds live handles end to end.

    // --- 1. bare service, disruption-heavy lunch hour -------------------
    let scenario = tiny_scenario(5);
    let network = scenario.city.network.clone();
    let events = DisruptionPreset::IncidentHeavy.builder(5).build(&scenario);
    assert!(!events.is_empty(), "the disruption profile must actually disrupt");
    let sim = scenario.into_simulation().with_events(events);

    let service_run = || {
        let mut policy = PolicyKind::FoodMatch.build();
        let mut service = sim.service(policy.as_mut());
        for order in &sim.orders {
            if order.placed_at >= sim.start && order.placed_at < sim.end {
                assert!(service.submit_order(*order).is_accepted());
            }
        }
        for &event in &sim.events {
            assert!(service.ingest_event(event).is_accepted());
        }
        let mut outputs = Vec::new();
        while !service.is_finished() {
            let tick = service.now() + service.config().accumulation_window;
            outputs.extend(service.advance_to(tick));
        }
        let report = service.report();
        (outputs, report)
    };
    let (bare_out, bare_report) = service_run();
    telemetry::install(recorder.clone());
    let (live_out, live_report) = service_run();
    telemetry::uninstall();
    assert!(
        live_out.iter().any(|o| matches!(o, DispatchOutput::Delivered { .. })),
        "the service day must deliver something"
    );
    assert_eq!(
        normalized_service_outputs(bare_out),
        normalized_service_outputs(live_out),
        "service: output stream must be identical with the recorder on"
    );
    assert_eq!(
        normalized(bare_report),
        normalized(live_report),
        "service: report must be identical with the recorder on"
    );

    // --- 2. one-zone router over the same day ---------------------------
    let router_run = || {
        let mut router = DispatchRouter::new(
            &network,
            ZoneMap::single(&network),
            sim.vehicle_starts.clone(),
            |_| PolicyKind::FoodMatch.build(),
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
        let mut outputs = Vec::new();
        while !router.is_finished() {
            let tick = router.now() + router.config().accumulation_window;
            outputs.extend(router.advance_to(tick));
        }
        let report = router.report();
        (outputs, report.aggregate)
    };
    let (bare_out, bare_report) = router_run();
    telemetry::install(recorder.clone());
    let (live_out, live_report) = router_run();
    telemetry::uninstall();
    assert_eq!(
        normalized_outputs(bare_out),
        normalized_outputs(live_out),
        "one-zone router: output stream must be identical with the recorder on"
    );
    assert_eq!(
        normalized(bare_report),
        normalized(live_report),
        "one-zone router: report must be identical with the recorder on"
    );

    // --- 3. four-thread multi-zone metro router -------------------------
    let mut options = MetroOptions::lunch_peak(9);
    options.orders = 120;
    options.vehicles = 96;
    let metro = MetroScenario::generate(options);
    let metro_run = || {
        let config = foodmatch_core::DispatchConfig { num_threads: 4, ..metro.config() };
        let mut router = DispatchRouter::new(
            &metro.network,
            metro.zone_map(),
            metro.vehicle_starts.clone(),
            |_| PolicyKind::FoodMatch.build(),
            config,
            options.start,
            options.end,
            foodmatch_roadnet::Duration::from_hours(2.0),
        );
        for order in &metro.orders {
            assert!(router.submit_order(*order).is_accepted());
        }
        let mut outputs = Vec::new();
        while !router.is_finished() {
            let tick = router.now() + router.config().accumulation_window;
            outputs.extend(router.advance_to(tick));
        }
        let zones = router.report().zones;
        (outputs, zones)
    };
    let (bare_out, bare_zones) = metro_run();
    telemetry::install(recorder.clone());
    let (live_out, live_zones) = metro_run();
    telemetry::uninstall();
    let zones_seen: HashSet<ZoneId> = bare_out.iter().map(|o| o.zone).collect();
    assert!(zones_seen.len() > 1, "the metro day must touch more than one zone");
    assert_eq!(
        normalized_outputs(bare_out),
        normalized_outputs(live_out),
        "metro router: output stream must be identical with the recorder on"
    );
    assert_eq!(bare_zones.len(), live_zones.len());
    for ((zone_a, report_a), (zone_b, report_b)) in bare_zones.into_iter().zip(live_zones) {
        assert_eq!(zone_a, zone_b);
        assert_eq!(
            normalized(report_a),
            normalized(report_b),
            "{zone_a}: per-zone report must be identical with the recorder on"
        );
    }

    // --- 4. the service day again, behind a window-flushed WAL ----------
    let scratch = |name: &str| {
        std::env::temp_dir().join(format!("fm-neutrality-{}-{name}", std::process::id()))
    };
    let (wal_path, ckpt_path) = (scratch("day.wal"), scratch("day.ckpt"));
    let durable_run = || {
        let log = WriteAheadLog::create_with(&wal_path, FlushPolicy::Window).expect("create WAL");
        let mut durable = DurableDispatch::new(sim.service(PolicyKind::FoodMatch.build()), log);
        for order in &sim.orders {
            if order.placed_at >= sim.start && order.placed_at < sim.end {
                assert!(durable.submit_order(*order).expect("durable submit").is_accepted());
            }
        }
        for &event in &sim.events {
            assert!(durable.ingest_event(event).expect("durable ingest").is_accepted());
        }
        let mut outputs = Vec::new();
        let mut ticks = 0;
        while !durable.target().is_finished() {
            let tick = durable.target().now() + sim.config.accumulation_window;
            outputs.extend(durable.advance_to(tick).expect("durable advance"));
            ticks += 1;
            if ticks == 3 {
                let checkpoint = durable.checkpoint().expect("capture checkpoint");
                save_checkpoint(&ckpt_path, &checkpoint).expect("save checkpoint");
            }
        }
        assert!(ticks >= 3, "the day must be long enough to checkpoint mid-way");
        let report = durable.target().report();
        (outputs, report)
    };
    let (bare_out, bare_report) = durable_run();
    telemetry::install(recorder.clone());
    let (live_out, live_report) = durable_run();
    telemetry::uninstall();
    std::fs::remove_file(&wal_path).ok();
    std::fs::remove_file(&ckpt_path).ok();
    assert_eq!(
        normalized_service_outputs(bare_out),
        normalized_service_outputs(live_out),
        "durable service: output stream must be identical with the recorder on"
    );
    assert_eq!(
        normalized(bare_report),
        normalized(live_report),
        "durable service: report must be identical with the recorder on"
    );

    // --- the live runs must have observed the whole stack ---------------
    let categories: HashSet<&str> = recorder.trace.events().iter().map(|e| e.cat).collect();
    for cat in ["engine", "solver", "shard", "service", "wal", "checkpoint"] {
        assert!(categories.contains(cat), "trace is missing {cat} spans: {categories:?}");
    }
    // FoodGraph construction shows its three window phases under its span.
    let events = recorder.trace.events();
    let names: HashSet<&str> = events.iter().map(|e| e.name.as_ref()).collect();
    for name in ["foodgraph.build", "foodgraph.collect", "foodgraph.resolve", "foodgraph.price"] {
        assert!(names.contains(name), "trace is missing the {name} span");
    }
    // Alg. 1's restaurant pass runs inside its oracle sweep (times are
    // truncated to whole microseconds, so an end may overhang by one).
    let named = |name: &'static str| events.iter().filter(move |e| e.name == name);
    assert!(named("batching.near").next().is_some(), "trace is missing the batching.near span");
    for near in named("batching.near") {
        assert!(
            named("batching.sweep").any(|sweep| sweep.tid == near.tid
                && sweep.start_us <= near.start_us
                && near.start_us + near.dur_us <= sweep.start_us + sweep.dur_us + 1),
            "batching.near outside every batching.sweep"
        );
    }
    let snap = recorder.telemetry.snapshot();
    assert!(snap.counter("engine.queries").unwrap_or(0) > 0, "engine recorded no queries");
    assert!(
        snap.counter("engine.foodgraph.sources").unwrap_or(0) > 0,
        "the resolve phase swept no source"
    );
    assert!(snap.histogram_sum("matching.solve_ns.").count > 0, "no solver latency samples");
    assert!(
        snap.histogram("service.advance_ns").map_or(0, |h| h.count) > 0,
        "no service advance samples"
    );
    assert!(
        snap.histogram("router.shard_advance_ns").map_or(0, |h| h.count) > 0,
        "no per-shard advance samples"
    );
}
