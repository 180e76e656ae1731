//! Golden equivalence: the batch driver `Simulation::run` and external
//! incremental stepping of `DispatchService` are the same dispatcher.
//!
//! The acceptance check of the online-API redesign: for all four policies,
//! on a disruption-heavy lunch-peak scenario, a batch replay and a
//! window-at-a-time incremental drive (with mid-run `snapshot()` and
//! `report()` probes) must produce bit-identical `SimulationReport`s —
//! every delivery timestamp, XDT, rejection, cancellation, driven meter and
//! window statistic equal. Only the wall-clock fields (`compute_secs` and
//! the `overflown` flag derived from it) are normalised before comparing:
//! they measure the host machine, not the dispatch outcome.

use foodmatch_core::codec::Codec;
use foodmatch_core::PolicyKind;
use foodmatch_roadnet::{Duration, ShortestPathEngine};
use foodmatch_sim::{
    DispatchOutput, DispatchService, ServiceCheckpoint, Simulation, SimulationReport,
};
use foodmatch_workload::{DisruptionPreset, OrderSource, ReplayOrderSource};
use integration_tests::tiny_scenario;

/// Zeroes the wall-clock-dependent window fields so reports can be compared
/// bit for bit on the dispatch outcome.
fn normalized(mut report: SimulationReport) -> SimulationReport {
    for window in &mut report.windows {
        window.compute_secs = 0.0;
        window.overflown = false;
    }
    report
}

/// The disruption-heavy lunch-peak scenario of the acceptance criterion.
fn disrupted_simulation(seed: u64) -> Simulation {
    let scenario = tiny_scenario(seed);
    let events = DisruptionPreset::IncidentHeavy.builder(seed).build(&scenario);
    assert!(!events.is_empty(), "the disruption profile must actually disrupt");
    scenario.into_simulation().with_events(events)
}

/// Drives `sim` through a `DispatchService` incrementally: everything is
/// submitted up front (the batch-equivalent ingest pattern — SDT baselines
/// are evaluated on the calm network, exactly as `run` does), then the
/// clock advances one accumulation window per call, probing `snapshot()`
/// and `report()` along the way to prove mid-run observation is free.
/// With `restore_every_window`, the live service is thrown away after every
/// window and replaced by one restored from its checkpoint's bytes into a
/// fresh engine (cold caches, overlay re-installed from the schedule).
/// Returns the output stream (wall-clock fields zeroed) and the report.
fn run_incrementally(
    sim: &Simulation,
    kind: PolicyKind,
    restore_every_window: bool,
) -> (Vec<DispatchOutput>, SimulationReport) {
    let mut service = sim.service(kind.build());
    for order in &sim.orders {
        if order.placed_at >= sim.start && order.placed_at < sim.end {
            assert!(service.submit_order(*order).is_accepted());
        }
    }
    for &event in &sim.events {
        assert!(service.ingest_event(event).is_accepted());
    }

    let mut probe_counter = 0usize;
    let mut outputs: Vec<DispatchOutput> = Vec::new();
    while !service.is_finished() {
        let tick = service.now() + service.config().accumulation_window;
        outputs.extend(service.advance_to(tick));
        if restore_every_window {
            let bytes = service.checkpoint().to_bytes();
            let revived = ServiceCheckpoint::from_bytes(&bytes).expect("round trip");
            let engine = ShortestPathEngine::cached(sim.engine.network().clone());
            service = DispatchService::restore(engine, kind.build(), &revived);
        }
        // Mid-run observation must not perturb the run.
        probe_counter += 1;
        if probe_counter % 3 == 0 {
            let snap = service.snapshot();
            let partial = service.report();
            assert_eq!(snap.delivered, partial.delivered.len());
            assert_eq!(snap.cancelled, partial.cancelled.len());
            assert_eq!(snap.rejected, partial.rejected.len());
            assert!(snap.now <= service.drain_deadline());
        }
    }
    let report = service.report();

    // The typed output stream is the report, event by event.
    let delivered_out =
        outputs.iter().filter(|o| matches!(o, DispatchOutput::Delivered { .. })).count();
    let rejected_out =
        outputs.iter().filter(|o| matches!(o, DispatchOutput::Rejected { .. })).count();
    let cancelled_out =
        outputs.iter().filter(|o| matches!(o, DispatchOutput::Cancelled { .. })).count();
    let windows_out =
        outputs.iter().filter(|o| matches!(o, DispatchOutput::WindowClosed { .. })).count();
    assert_eq!(delivered_out, report.delivered.len());
    assert_eq!(rejected_out, report.rejected.len());
    assert_eq!(cancelled_out, report.cancelled.len());
    assert_eq!(windows_out, report.windows.len());

    for output in &mut outputs {
        if let DispatchOutput::WindowClosed { stats } = output {
            (stats.compute_secs, stats.overflown) = (0.0, false);
        }
    }
    (outputs, report)
}

#[test]
fn batch_and_incremental_stepping_are_bit_identical_for_all_policies() {
    let sim = disrupted_simulation(5);
    for kind in PolicyKind::ALL {
        let mut batch_policy = kind.build();
        let batch = sim.run(batch_policy.as_mut());
        let incremental = run_incrementally(&sim, kind, false).1;

        assert!(!batch.delivered.is_empty(), "{kind:?}: scenario must deliver something");
        assert!(
            batch.windows.iter().any(|w| w.disrupted),
            "{kind:?}: the disruption profile must hit dispatch windows"
        );
        assert_eq!(
            normalized(batch),
            normalized(incremental),
            "{kind:?}: batch run() and incremental advance_to must agree bit for bit"
        );
    }
}

#[test]
fn restoring_from_checkpoint_bytes_after_every_window_changes_nothing() {
    // "A checkpoint is the whole run", at every window boundary of the
    // disruption-heavy day rather than at one hand-picked minute.
    let sim = disrupted_simulation(5);
    for kind in PolicyKind::ALL {
        let (golden_outputs, golden_report) = run_incrementally(&sim, kind, false);
        let (outputs, report) = run_incrementally(&sim, kind, true);
        assert_eq!(outputs, golden_outputs, "{kind:?}: the restored stream must equal golden");
        assert_eq!(normalized(report), normalized(golden_report), "{kind:?}: and the report");
    }
}

#[test]
fn coarse_and_fine_advance_grains_agree() {
    // advance_to is window-quantised: one jump to the drain deadline and
    // 1-window hops must be the same run.
    let sim = disrupted_simulation(7);
    let kind = PolicyKind::FoodMatch;
    let fine = run_incrementally(&sim, kind, false).1;

    let mut policy = kind.build();
    let mut service = sim.service(policy.as_mut());
    for order in &sim.orders {
        let _ = service.submit_order(*order);
    }
    for &event in &sim.events {
        let _ = service.ingest_event(event);
    }
    let coarse = service.run_to_completion();
    assert_eq!(normalized(coarse), normalized(fine));
}

#[test]
fn streaming_submission_matches_batch_on_a_calm_day() {
    // With no traffic overlay in play, orders may be submitted just in time
    // (streamed from an OrderSource tick by tick) and the run is still bit
    // identical to the batch replay: SDT baselines only depend on ingest
    // time through the overlay, and there is none on a calm day.
    let scenario = tiny_scenario(11);
    let sim = scenario.into_simulation();
    for kind in PolicyKind::ALL {
        let mut batch_policy = kind.build();
        let batch = sim.run(batch_policy.as_mut());

        let mut policy = kind.build();
        let mut service = sim.service(policy.as_mut());
        let mut source = ReplayOrderSource::new(sim.orders.clone());
        while !service.is_finished() {
            let tick = service.now() + service.config().accumulation_window;
            for order in source.poll(tick) {
                let _ = service.submit_order(order);
            }
            let _ = service.advance_to(tick);
        }
        assert_eq!(
            normalized(batch),
            normalized(service.report()),
            "{kind:?}: just-in-time streaming must match the batch replay on a calm day"
        );
    }
}

#[test]
fn rerunning_the_batch_driver_is_deterministic_after_service_use() {
    // The re-runnability contract of Simulation::run: a service-driven run
    // in between does not leak state (overlay, caches-as-answers) into
    // subsequent batch runs on the same shared engine.
    let sim = disrupted_simulation(3);
    let mut a_policy = PolicyKind::FoodMatch.build();
    let a = sim.run(a_policy.as_mut());
    let _ = run_incrementally(&sim, PolicyKind::Greedy, false);
    assert!(!sim.engine.has_overlay(), "the service hands the engine back clean");
    let mut b_policy = PolicyKind::FoodMatch.build();
    let b = sim.run(b_policy.as_mut());
    assert_eq!(normalized(a), normalized(b));

    // A shorter drain limit is honoured by the service the driver builds.
    let mut short = disrupted_simulation(3);
    short.drain_limit = Duration::from_mins(6.0);
    let mut c_policy = PolicyKind::FoodMatch.build();
    let c = short.run(c_policy.as_mut());
    assert_eq!(
        c.delivered.len() + c.rejected.len() + c.cancelled.len() + c.undelivered.len(),
        c.total_orders,
        "every order is accounted even when the drain is cut short"
    );
}
