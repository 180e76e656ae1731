//! Fault-injected recovery equivalence: a crash, a checkpoint restore and a
//! WAL-suffix replay must land on the exact run that never crashed.
//!
//! The acceptance check of the crash-safety layer. A scripted day — orders
//! streamed in just in time, disruption events, one `advance_to` per
//! accumulation window — is driven twice through a [`DurableDispatch`]:
//!
//! * **golden** — uninterrupted, start to drain;
//! * **crashed** — a [`FailPoint`] kills the run at a chosen WAL sequence
//!   (before the append, after it, or tearing the frame midway), then
//!   recovery reopens the log (truncating any tear), restores the latest
//!   on-disk checkpoint, replays the log suffix past the checkpoint's
//!   `wal_seq`, and the surviving process finishes the script.
//!
//! The recovered output stream — outputs emitted before the checkpoint,
//! plus the replayed suffix, plus the continuation — and the final report
//! must be bit-identical to the golden run (only the wall-clock window
//! fields `compute_secs`/`overflown` are normalised, as in
//! `tests/service_equivalence.rs`). Crash points cover mid-ingest, a window
//! boundary and late mid-day after the incidents have played through; the
//! property is pinned for all four policies on the bare [`DispatchService`]
//! and for the multi-zone [`DispatchRouter`] at one and four lockstep
//! threads.
//!
//! Group commit adds a second axis: under a batched [`FlushPolicy`] a crash
//! also loses the unflushed record group, so the durable log ends at a
//! *flush boundary* at or before the crash sequence. The script keeps op
//! index and WAL sequence aligned, so recovery replays to the boundary and
//! the continuation re-drives the lost ops — full-day equivalence then
//! holds for every flush policy, and
//! `recovery_lands_exactly_on_the_last_acked_flush_boundary` pins the
//! prefix-durability contract itself: with no re-driving at all, the
//! recovered state equals a fresh run of exactly the acked prefix.

use foodmatch_core::codec::Codec;
use foodmatch_core::{DispatchConfig, DispatchPolicy, Order, PolicyKind};
use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
use foodmatch_roadnet::{Duration, TimePoint};
use foodmatch_sim::{
    load_checkpoint, replay_wal, save_checkpoint, AdvanceOutcome, DispatchOutput, DispatchRouter,
    DispatchService, DurableDispatch, FailMode, FailPoint, FlushPolicy, RoutedOutput,
    RouterCheckpoint, ServiceCheckpoint, SimulationReport, WalError, WalTarget, WriteAheadLog,
    ZoneId,
};
use foodmatch_workload::{DisruptionPreset, MetroOptions, MetroScenario};
use integration_tests::tiny_scenario;
use std::path::{Path, PathBuf};

type DynPolicy = Box<dyn DispatchPolicy>;

/// One scripted dispatcher input. The script is fixed up front so the
/// golden run, the crashed run and the post-recovery continuation all see
/// the same input sequence — op index and WAL sequence number coincide.
#[derive(Clone, Copy, Debug)]
enum Op {
    Submit(Order),
    Ingest(DisruptionEvent),
    Advance(TimePoint),
}

/// Builds the scripted day: every event up front, then one accumulation
/// window per `Advance` with the orders of that window submitted just in
/// time before it.
fn build_script(
    orders: &[Order],
    events: &[DisruptionEvent],
    window: Duration,
    start: TimePoint,
    end: TimePoint,
    drain_end: TimePoint,
) -> Vec<Op> {
    let mut ops: Vec<Op> = events.iter().map(|&e| Op::Ingest(e)).collect();
    let eligible: Vec<Order> =
        orders.iter().copied().filter(|o| o.placed_at >= start && o.placed_at < end).collect();
    let mut submitted = vec![false; eligible.len()];
    let mut tick = start;
    while tick < drain_end {
        tick += window;
        if tick > drain_end {
            tick = drain_end;
        }
        for (i, order) in eligible.iter().enumerate() {
            if !submitted[i] && order.placed_at <= tick {
                submitted[i] = true;
                ops.push(Op::Submit(*order));
            }
        }
        ops.push(Op::Advance(tick));
    }
    assert!(submitted.iter().all(|&s| s), "every in-horizon order must be scripted");
    ops
}

/// Applies one scripted op through the durable wrapper, returning the
/// outputs it produced (submissions and ingests produce none).
fn apply_op<T: WalTarget>(
    durable: &mut DurableDispatch<T>,
    op: &Op,
) -> Result<Vec<T::Output>, WalError> {
    match op {
        Op::Submit(order) => durable.submit_order(*order).map(|_| Vec::new()),
        Op::Ingest(event) => durable.ingest_event(*event).map(|_| Vec::new()),
        Op::Advance(until) => durable.advance_to(*until).map(AdvanceOutcome::into_outputs),
    }
}

/// The uninterrupted golden run: the whole script through a fresh durable
/// dispatcher, returning its output stream and final dispatcher.
fn run_golden<T: WalTarget>(target: T, wal_path: &Path, ops: &[Op]) -> (Vec<T::Output>, T) {
    let mut durable = DurableDispatch::new(target, WriteAheadLog::create(wal_path).expect("wal"));
    let mut outputs = Vec::new();
    for op in ops {
        outputs.extend(apply_op(&mut durable, op).expect("golden run must not crash"));
    }
    let (target, _log) = durable.into_parts();
    (outputs, target)
}

/// The crashed run: drive the script into `crash`, checkpointing into the
/// container file `ckpt` every `ckpt_every_advance` windows (plus once at
/// sequence zero), then recover — reopen the WAL, load the latest
/// checkpoint and `restore` it (returning the dispatcher and the
/// checkpoint's `wal_seq`), replay the suffix, and finish the script.
/// Returns the recovered output stream (pre-checkpoint prefix + replay +
/// continuation) and the final dispatcher.
#[allow(clippy::too_many_arguments, reason = "a test harness knob per crash axis")]
fn run_crashed_and_recover<T: WalTarget>(
    target: T,
    wal_path: &Path,
    ops: &[Op],
    flush: FlushPolicy,
    crash: FailPoint,
    ckpt_every_advance: usize,
    ckpt: &Path,
    restore: impl FnOnce(&T::Checkpoint) -> (T, u64),
) -> (Vec<T::Output>, T)
where
    T::Checkpoint: Codec,
{
    let log = WriteAheadLog::create_with(wal_path, flush).expect("wal");
    let mut durable = DurableDispatch::new(target, log);
    durable.set_fail_point(Some(crash));
    let save = |c: &T::Checkpoint| save_checkpoint(ckpt, c).expect("save checkpoint");
    save(&durable.checkpoint().expect("checkpoint is a flush barrier"));

    // Per-op outputs, indexed by WAL sequence, until the fail point fires.
    let mut per_op: Vec<Vec<T::Output>> = Vec::new();
    let mut advances = 0usize;
    let mut crashed = false;
    for op in ops {
        match apply_op(&mut durable, op) {
            Ok(outs) => {
                per_op.push(outs);
                if matches!(op, Op::Advance(_)) {
                    advances += 1;
                    if advances % ckpt_every_advance == 0 {
                        save(&durable.checkpoint().expect("checkpoint is a flush barrier"));
                    }
                }
            }
            Err(WalError::CrashInjected { .. }) => {
                crashed = true;
                break;
            }
            Err(e) => panic!("unexpected WAL error mid-script: {e}"),
        }
    }
    assert!(crashed, "the fail point at seq {} must fire", crash.at_seq);
    assert!(durable.is_crashed());
    assert!(
        matches!(durable.submit_order(ops_first_order(ops)), Err(WalError::Crashed)),
        "a crashed dispatcher must refuse further input"
    );
    drop(durable);

    // Recovery: reopen the log (truncating any torn tail), restore the
    // latest checkpoint, replay the suffix past its wal_seq.
    let (log, read) = WriteAheadLog::open(wal_path).expect("reopen the log after the crash");
    let resume_at = read.records.len();
    let (mut restored, ckpt_seq) = restore(&load_checkpoint(ckpt).expect("load checkpoint"));
    let replayed = replay_wal(&mut restored, &read.records[ckpt_seq as usize..])
        .expect("replaying an intact suffix");

    // The recovered stream: everything durably emitted before the
    // checkpoint, the replayed span, then the continuation of the script
    // from the first op the log never saw.
    let mut outputs: Vec<T::Output> = per_op.drain(..ckpt_seq as usize).flatten().collect();
    outputs.extend(replayed);
    let mut durable = DurableDispatch::new(restored, log);
    for op in &ops[resume_at..] {
        outputs.extend(apply_op(&mut durable, op).expect("the recovered run must not crash"));
    }
    let (target, _log) = durable.into_parts();
    (outputs, target)
}

/// Any order from the script, for poking a crashed dispatcher.
fn ops_first_order(ops: &[Op]) -> Order {
    ops.iter()
        .find_map(|op| match op {
            Op::Submit(order) => Some(*order),
            _ => None,
        })
        .expect("the script submits at least one order")
}

/// The three crash points of the acceptance criterion, with all three fail
/// modes represented: a torn append mid-ingest (early, while demand is
/// streaming in), a durable-but-unapplied advance at a mid-day window
/// boundary, and a pre-append death late in the day, after the incident
/// events have played through.
fn crash_points(ops: &[Op]) -> Vec<FailPoint> {
    let submits: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Submit(_)))
        .map(|(i, _)| i)
        .collect();
    let advances: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| matches!(op, Op::Advance(_)))
        .map(|(i, _)| i)
        .collect();
    assert!(submits.len() >= 2 && advances.len() >= 4, "script too small to crash in");
    vec![
        FailPoint { at_seq: submits[1] as u64, mode: FailMode::TornAppend },
        FailPoint { at_seq: advances[advances.len() / 2] as u64, mode: FailMode::AfterAppend },
        FailPoint { at_seq: (ops.len() * 3 / 4) as u64, mode: FailMode::BeforeAppend },
    ]
}

/// Zeroes the wall-clock-dependent window fields of a report.
fn normalized(mut report: SimulationReport) -> SimulationReport {
    for window in &mut report.windows {
        window.compute_secs = 0.0;
        window.overflown = false;
    }
    report
}

/// Zeroes the wall-clock-dependent fields inside a service output stream.
fn normalized_outputs(mut outputs: Vec<DispatchOutput>) -> Vec<DispatchOutput> {
    for output in &mut outputs {
        if let DispatchOutput::WindowClosed { stats } = output {
            stats.compute_secs = 0.0;
            stats.overflown = false;
        }
    }
    outputs
}

/// Zeroes the wall-clock-dependent fields inside a routed output stream.
fn normalized_routed(mut outputs: Vec<RoutedOutput>) -> Vec<RoutedOutput> {
    for routed in &mut outputs {
        if let DispatchOutput::WindowClosed { stats } = &mut routed.output {
            stats.compute_secs = 0.0;
            stats.overflown = false;
        }
    }
    outputs
}

/// A scratch directory unique to one (test, tag) pair.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fm-recovery-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn service_recovery_is_bit_identical_for_all_policies_and_crash_points() {
    let scenario = tiny_scenario(5);
    let events = DisruptionPreset::IncidentHeavy.builder(5).build(&scenario);
    assert!(!events.is_empty(), "the disruption profile must actually disrupt");
    let sim = scenario.into_simulation().with_events(events);
    let ops = build_script(
        &sim.orders,
        &sim.events,
        sim.config.accumulation_window,
        sim.start,
        sim.end,
        sim.end + sim.drain_limit,
    );
    let crashes = crash_points(&ops);

    for kind in PolicyKind::ALL {
        let dir = scratch_dir(&format!("svc-{kind:?}"));
        let (golden_outputs, golden) =
            run_golden(sim.service::<DynPolicy>(kind.build()), &dir.join("golden.wal"), &ops);
        assert!(
            golden_outputs.iter().any(|o| matches!(o, DispatchOutput::Delivered { .. })),
            "{kind:?}: the golden day must deliver something"
        );
        let golden_outputs = normalized_outputs(golden_outputs);
        let golden_report = normalized(golden.report());

        for (i, &crash) in crashes.iter().enumerate() {
            let wal = dir.join(format!("crash-{i}.wal"));
            let ckpt = dir.join(format!("crash-{i}.ckpt"));
            let (outputs, recovered) = run_crashed_and_recover(
                sim.service::<DynPolicy>(kind.build()),
                &wal,
                &ops,
                FlushPolicy::EveryRecord,
                crash,
                3,
                &ckpt,
                |c: &ServiceCheckpoint| {
                    (DispatchService::restore(sim.engine.clone(), kind.build(), c), c.wal_seq)
                },
            );
            assert_eq!(
                normalized_outputs(outputs),
                golden_outputs,
                "{kind:?} crash {i} ({:?} at seq {}): recovered output stream must equal golden",
                crash.mode,
                crash.at_seq
            );
            assert_eq!(
                normalized(recovered.report()),
                golden_report,
                "{kind:?} crash {i} ({:?} at seq {}): recovered report must equal golden",
                crash.mode,
                crash.at_seq
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The metro day the router recovery tests run: a compact multi-zone
/// workload plus a mixed event script (city-wide rain, a zone-local
/// incident, order and fleet churn — every routing path of ingest_event).
fn metro_day(seed: u64) -> (MetroScenario, Vec<DisruptionEvent>, Vec<Op>) {
    let mut options = MetroOptions::lunch_peak(seed);
    options.orders = 90;
    options.vehicles = 72;
    let metro = MetroScenario::generate(options);
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
    let config = metro.config();
    let drain = Duration::from_hours(2.0);
    let ops = build_script(
        &metro.orders,
        &events,
        config.accumulation_window,
        options.start,
        options.end,
        options.end + drain,
    );
    (metro, events, ops)
}

/// Builds a fresh multi-zone router for the metro day under `kind` with
/// `threads` lockstep threads.
fn metro_router(
    metro: &MetroScenario,
    kind: PolicyKind,
    threads: usize,
) -> DispatchRouter<DynPolicy> {
    let config = DispatchConfig { num_threads: threads, ..metro.config() };
    DispatchRouter::new(
        &metro.network,
        metro.zone_map(),
        metro.vehicle_starts.clone(),
        |_| kind.build(),
        config,
        metro.options.start,
        metro.options.end,
        Duration::from_hours(2.0),
    )
}

/// Restores the metro day's router from a loaded checkpoint, for
/// [`run_crashed_and_recover`].
fn restore_router(
    metro: &MetroScenario,
    kind: PolicyKind,
    checkpoint: &RouterCheckpoint,
) -> (DispatchRouter<DynPolicy>, u64) {
    let router =
        DispatchRouter::restore(&metro.network, metro.zone_map(), |_| kind.build(), checkpoint);
    (router.expect("restore router"), checkpoint.wal_seq)
}

#[test]
fn router_recovery_is_bit_identical_at_one_and_four_threads() {
    let (metro, _events, ops) = metro_day(9);
    let crashes = crash_points(&ops);
    let kind = PolicyKind::FoodMatch;
    let mut golden_by_threads: Vec<Vec<RoutedOutput>> = Vec::new();

    for threads in [1usize, 4] {
        let dir = scratch_dir(&format!("router-t{threads}"));
        let (golden_outputs, golden) =
            run_golden(metro_router(&metro, kind, threads), &dir.join("golden.wal"), &ops);
        let zones_seen: std::collections::HashSet<ZoneId> =
            golden_outputs.iter().map(|o| o.zone).collect();
        assert!(zones_seen.len() > 1, "a metro day must touch more than one zone");
        let golden_outputs = normalized_routed(golden_outputs);
        let golden_report = golden.report();

        for (i, &crash) in crashes.iter().enumerate() {
            let wal = dir.join(format!("crash-{i}.wal"));
            let ckpt = dir.join(format!("crash-{i}.ckpt"));
            let (outputs, recovered) = run_crashed_and_recover(
                metro_router(&metro, kind, threads),
                &wal,
                &ops,
                FlushPolicy::EveryRecord,
                crash,
                2,
                &ckpt,
                |c| restore_router(&metro, kind, c),
            );
            assert_eq!(
                normalized_routed(outputs),
                golden_outputs,
                "threads {threads} crash {i} ({:?} at seq {}): recovered routed stream must equal golden",
                crash.mode,
                crash.at_seq
            );
            let recovered_report = recovered.report();
            assert_eq!(
                normalized(recovered_report.aggregate),
                normalized(golden_report.aggregate.clone()),
                "threads {threads} crash {i}: recovered aggregate report must equal golden"
            );
            assert_eq!(recovered_report.zones.len(), golden_report.zones.len());
            for ((zone_a, report_a), (zone_b, report_b)) in
                recovered_report.zones.into_iter().zip(golden_report.zones.clone())
            {
                assert_eq!(zone_a, zone_b);
                assert_eq!(
                    normalized(report_a),
                    normalized(report_b),
                    "threads {threads} crash {i} {zone_a}: recovered zone report must equal golden"
                );
            }
        }
        golden_by_threads.push(golden_outputs);
        std::fs::remove_dir_all(&dir).ok();
    }

    // Thread-count independence holds for the durable wrapper too.
    assert_eq!(
        golden_by_threads[0], golden_by_threads[1],
        "the golden durable stream must not depend on the thread count"
    );
}

#[test]
fn router_recovery_holds_for_every_policy() {
    let (metro, _events, ops) = metro_day(11);
    // One late crash point: mid-day, after the incidents have played
    // through — the deepest state a recovery has to reconstruct.
    let crash = FailPoint { at_seq: (ops.len() * 3 / 4) as u64, mode: FailMode::AfterAppend };

    for kind in PolicyKind::ALL {
        let dir = scratch_dir(&format!("router-{kind:?}"));
        let (golden_outputs, golden) =
            run_golden(metro_router(&metro, kind, 4), &dir.join("golden.wal"), &ops);
        let golden_outputs = normalized_routed(golden_outputs);
        let golden_report = normalized(golden.report().aggregate);

        let wal = dir.join("crash.wal");
        let ckpt = dir.join("crash.ckpt");
        let (outputs, recovered) = run_crashed_and_recover(
            metro_router(&metro, kind, 4),
            &wal,
            &ops,
            FlushPolicy::EveryRecord,
            crash,
            2,
            &ckpt,
            |c| restore_router(&metro, kind, c),
        );
        assert_eq!(
            normalized_routed(outputs),
            golden_outputs,
            "{kind:?}: recovered routed stream must equal golden"
        );
        assert_eq!(
            normalized(recovered.report().aggregate),
            golden_report,
            "{kind:?}: recovered aggregate report must equal golden"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn service_recovery_is_bit_identical_for_every_flush_policy() {
    // Full-day equivalence under group commit: the crash loses the
    // unflushed group, recovery replays to the flush boundary, and the
    // continuation re-drives the lost ops — landing on the golden day.
    let scenario = tiny_scenario(5);
    let events = DisruptionPreset::IncidentHeavy.builder(5).build(&scenario);
    let sim = scenario.into_simulation().with_events(events);
    let ops = build_script(
        &sim.orders,
        &sim.events,
        sim.config.accumulation_window,
        sim.start,
        sim.end,
        sim.end + sim.drain_limit,
    );
    let crashes = crash_points(&ops);
    let kind = PolicyKind::FoodMatch;

    let dir = scratch_dir("svc-flush");
    let (golden_outputs, golden) =
        run_golden(sim.service::<DynPolicy>(kind.build()), &dir.join("golden.wal"), &ops);
    let golden_outputs = normalized_outputs(golden_outputs);
    let golden_report = normalized(golden.report());

    let flush = FlushPolicy::Window;
    for (i, &crash) in crashes.iter().enumerate() {
        let wal = dir.join(format!("crash-{i}.wal"));
        let ckpt = dir.join(format!("crash-{i}.ckpt"));
        let (outputs, recovered) = run_crashed_and_recover(
            sim.service::<DynPolicy>(kind.build()),
            &wal,
            &ops,
            flush,
            crash,
            3,
            &ckpt,
            |c: &ServiceCheckpoint| {
                (DispatchService::restore(sim.engine.clone(), kind.build(), c), c.wal_seq)
            },
        );
        assert_eq!(
            normalized_outputs(outputs),
            golden_outputs,
            "{flush:?} crash {i} ({:?} at seq {}): recovered output stream must equal golden",
            crash.mode,
            crash.at_seq
        );
        assert_eq!(
            normalized(recovered.report()),
            golden_report,
            "{flush:?} crash {i} ({:?} at seq {}): recovered report must equal golden",
            crash.mode,
            crash.at_seq
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_lands_exactly_on_the_last_acked_flush_boundary() {
    // The prefix-durability contract itself, with no continuation to paper
    // over anything: after a crash under any flush policy, the durable log
    // ends at a flush boundary F ≤ crash seq, and checkpoint-restore +
    // replay reconstructs *exactly* the state and outputs of a fresh
    // (never-crashed, never-recovered) run of ops[..F]. The unacked suffix
    // may vanish; nothing torn or reordered survives.
    let scenario = tiny_scenario(5);
    let events = DisruptionPreset::IncidentHeavy.builder(5).build(&scenario);
    let sim = scenario.into_simulation().with_events(events);
    let ops = build_script(
        &sim.orders,
        &sim.events,
        sim.config.accumulation_window,
        sim.start,
        sim.end,
        sim.end + sim.drain_limit,
    );
    let kind = PolicyKind::FoodMatch;
    let at_seq = (ops.len() * 3 / 4) as u64;
    for (p, &flush) in [FlushPolicy::EveryRecord, FlushPolicy::Window].iter().enumerate() {
        for (m, &mode) in
            [FailMode::BeforeAppend, FailMode::AfterAppend, FailMode::TornAppend].iter().enumerate()
        {
            let dir = scratch_dir(&format!("boundary-{p}-{m}"));
            let wal = dir.join("crash.wal");
            let ckpt = dir.join("crash.ckpt");

            // Drive into the crash, checkpointing every 3 windows.
            let log = WriteAheadLog::create_with(&wal, flush).expect("wal");
            let mut durable = DurableDispatch::new(sim.service::<DynPolicy>(kind.build()), log);
            durable.set_fail_point(Some(FailPoint { at_seq, mode }));
            save_checkpoint(&ckpt, &durable.checkpoint().expect("initial checkpoint"))
                .expect("save");
            let mut per_op: Vec<Vec<DispatchOutput>> = Vec::new();
            let mut advances = 0usize;
            for op in &ops {
                match apply_op(&mut durable, op) {
                    Ok(outs) => {
                        per_op.push(outs);
                        if matches!(op, Op::Advance(_)) {
                            advances += 1;
                            if advances % 3 == 0 {
                                let c = durable.checkpoint().expect("periodic checkpoint");
                                save_checkpoint(&ckpt, &c).expect("save");
                            }
                        }
                    }
                    Err(WalError::CrashInjected { .. }) => break,
                    Err(e) => panic!("unexpected WAL error mid-script: {e}"),
                }
            }
            drop(durable);

            // The durable log ends at a flush boundary no later than the
            // crash; the exact position depends on policy and fail mode.
            let (_log, read) = WriteAheadLog::open(&wal).expect("reopen");
            let boundary = read.records.len();
            match mode {
                FailMode::AfterAppend => assert_eq!(
                    boundary as u64,
                    at_seq + 1,
                    "{flush:?}: a durable crash record flushes its whole group"
                ),
                FailMode::TornAppend => assert_eq!(
                    boundary as u64, at_seq,
                    "{flush:?}: the torn record is dropped, its group survives"
                ),
                FailMode::BeforeAppend => {
                    assert!(boundary as u64 <= at_seq, "{flush:?}: nothing past the crash");
                    if flush == FlushPolicy::EveryRecord {
                        assert_eq!(boundary as u64, at_seq, "every record was acked");
                    }
                }
            }

            // Recover without continuing, and race it against a fresh run
            // of exactly the surviving prefix.
            let c: ServiceCheckpoint = load_checkpoint(&ckpt).expect("load checkpoint");
            let ckpt_seq = c.wal_seq;
            assert!(
                ckpt_seq as usize <= boundary,
                "{flush:?}: the checkpoint flush barrier keeps wal_seq within the durable log"
            );
            let mut recovered = DispatchService::restore(sim.engine.clone(), kind.build(), &c);
            let suffix = read.suffix_from(ckpt_seq).expect("the checkpoint anchors the suffix");
            let replayed = replay_wal(&mut recovered, suffix).expect("replaying an intact suffix");
            let mut outputs: Vec<DispatchOutput> =
                per_op.drain(..ckpt_seq as usize).flatten().collect();
            outputs.extend(replayed);

            let mut prefix = sim.service::<DynPolicy>(kind.build());
            let mut prefix_outputs = Vec::new();
            for op in &ops[..boundary] {
                match op {
                    Op::Submit(order) => {
                        let _ = prefix.submit_order(*order);
                    }
                    Op::Ingest(event) => {
                        let _ = prefix.ingest_event(*event);
                    }
                    Op::Advance(until) => {
                        prefix_outputs.extend(prefix.advance_to(*until).into_outputs())
                    }
                }
            }
            assert_eq!(
                normalized_outputs(outputs),
                normalized_outputs(prefix_outputs),
                "{flush:?} {mode:?}: recovered outputs must equal the acked-prefix run"
            );
            assert_eq!(
                normalized(recovered.report()),
                normalized(prefix.report()),
                "{flush:?} {mode:?}: recovered state must equal the acked-prefix run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn router_recovery_holds_for_group_commit_policies_at_four_threads() {
    let (metro, _events, ops) = metro_day(13);
    // A pre-append death deep in the day: under group commit this also
    // discards the unflushed group, so recovery must rewind to the last
    // flush boundary and the continuation must re-drive the lost ops.
    let crash = FailPoint { at_seq: (ops.len() * 3 / 4) as u64, mode: FailMode::BeforeAppend };
    let kind = PolicyKind::FoodMatch;

    let dir = scratch_dir("router-flush");
    let (golden_outputs, golden) =
        run_golden(metro_router(&metro, kind, 4), &dir.join("golden.wal"), &ops);
    let golden_outputs = normalized_routed(golden_outputs);
    let golden_report = normalized(golden.report().aggregate);

    let flush = FlushPolicy::Window;
    let wal = dir.join("crash.wal");
    let ckpt = dir.join("crash.ckpt");
    let (outputs, recovered) = run_crashed_and_recover(
        metro_router(&metro, kind, 4),
        &wal,
        &ops,
        flush,
        crash,
        2,
        &ckpt,
        |c| restore_router(&metro, kind, c),
    );
    assert_eq!(
        normalized_routed(outputs),
        golden_outputs,
        "{flush:?}: recovered routed stream must equal golden"
    );
    assert_eq!(
        normalized(recovered.report().aggregate),
        golden_report,
        "{flush:?}: recovered aggregate report must equal golden"
    );
    std::fs::remove_dir_all(&dir).ok();
}
