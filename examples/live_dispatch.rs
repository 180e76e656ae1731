//! Live dispatch: drive the online `DispatchService` from a closed-loop
//! Poisson demand source — no pre-materialized order list anywhere — with
//! the full crash-safety loop around it.
//!
//! The shape below is a production deployment: each tick, poll the demand
//! stream, submit what arrived through the write-ahead log (group-committed
//! — one fsync per accumulation window under `FlushPolicy::Window`), maybe
//! ingest a disruption, advance one accumulation window and react to the
//! typed output events. Every few windows the dispatch thread captures a
//! checkpoint and persists it through a `Checkpointer`; each sealed
//! checkpoint then anchors a WAL compaction that drops the log prefix the
//! checkpoint already covers. Forty minutes in the
//! process "loses power": the in-memory dispatch state is dropped — along
//! with any unflushed record group — and the service is rebuilt from the
//! newest checkpoint plus a WAL replay, then resumes the same demand
//! stream to the end of the day.
//!
//! ```text
//! cargo run --release -p integration-tests --example live_dispatch
//! ```

use foodmatch_core::FoodMatchPolicy;
use foodmatch_events::{DisruptionCause, DisruptionEvent, EventKind, TrafficDisruption};
use foodmatch_roadnet::{Duration, TimePoint};
use foodmatch_sim::{
    load_checkpoint, replay_wal, Checkpointer, DispatchOutput, DispatchService, DurableDispatch,
    FlushPolicy, ServiceCheckpoint, WriteAheadLog,
};
use foodmatch_workload::{CityId, OrderSource, PoissonOrderSource, Scenario, ScenarioOptions};

type DurableService = DurableDispatch<DispatchService<FoodMatchPolicy>>;

fn main() {
    // Observability: install the global recorder before any component is
    // built, so every layer (engine, service, WAL, checkpoints) acquires
    // live handles; each window below prints a dashboard line from it.
    let recorder = foodmatch_telemetry::Recorder::new();
    foodmatch_telemetry::install(recorder.clone());

    // A generated city provides the network, the restaurant directory and
    // the fleet — but NOT the demand: orders will be drawn live.
    let options = ScenarioOptions {
        seed: 1,
        start: TimePoint::from_hms(12, 0, 0),
        end: TimePoint::from_hms(13, 0, 0),
        vehicle_fraction: 1.0,
    };
    let scenario = Scenario::generate(CityId::GrubHub, options);
    let mut demand = PoissonOrderSource::new(&scenario, 2024);
    let sim = scenario.into_simulation();
    println!(
        "city: {} nodes, {} vehicles, live Poisson demand 12:00-13:00",
        sim.engine.network().node_count(),
        sim.vehicle_starts.len()
    );

    // Durability: every submit/ingest/advance is framed and checksummed
    // into the WAL before the service applies it, group-committed with one
    // fsync per accumulation window; the periodic checkpoint bounds how much of the log a recovery has to replay, and each sealed
    // checkpoint lets the WAL drop the prefix it covers.
    let dir = std::env::temp_dir().join(format!("fm-live-dispatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let wal_path = dir.join("dispatch.wal");
    let ckpt_path = dir.join("dispatch.ckpt");
    let log = WriteAheadLog::create_with(&wal_path, FlushPolicy::Window).expect("create WAL");
    let mut durable = DurableDispatch::new(sim.service(FoodMatchPolicy::new()), log);
    let checkpointer = Checkpointer::new(&ckpt_path);

    // Half an hour in it starts raining; ten minutes later the power goes.
    let rain_at = sim.start + Duration::from_mins(30.0);
    let crash_at = sim.start + Duration::from_mins(40.0);

    pump(&mut durable, &mut demand, Some(rain_at), &checkpointer);
    let _ = durable
        .ingest_event(DisruptionEvent::new(
            rain_at,
            EventKind::Traffic(TrafficDisruption::city_wide(
                DisruptionCause::Rain,
                1.5,
                sim.end + Duration::from_hours(1.0),
            )),
        ))
        .expect("log rain");
    println!("{rain_at:?}  rain surge ingested (all roads 1.5x slower)");
    pump(&mut durable, &mut demand, Some(crash_at), &checkpointer);

    // A burst of demand lands in the instant before the cut: framed into
    // the WAL's in-memory group, but the window flush that would make it
    // durable never comes.
    let last_burst = demand
        .poll(crash_at)
        .into_iter()
        .map(|order| durable.submit_order(order).expect("buffer order"))
        .count();
    println!("{crash_at:?}  {last_burst} orders buffered, not yet flushed");

    // Simulated power cut: the in-memory dispatch state is gone, and so is
    // the unflushed record group — only the acked WAL prefix and the last
    // sealed checkpoint survive on disk. (A cut in the middle of a save
    // leaves the previous checkpoint intact: the write is an atomic rename.)
    let appended = durable.appended_seq();
    let (service, mut log) = durable.into_parts();
    let lost_group = log.discard_unflushed();
    let acked = log.acked_seq();
    drop(log);
    drop(service);
    println!();
    println!(
        "-- power cut near {crash_at:?}: state lost at wal seq {appended}, \
         {lost_group} buffered records gone with it (durable prefix: {acked}) --"
    );

    // Recovery: reopen the log (a torn final record would be truncated
    // here), restore the newest checkpoint, replay the compaction-aware
    // log suffix the checkpoint has not seen. The rain overlay, carried
    // orders and vehicle routes all come back bit-identical; the lost
    // group's demand is re-driven by the feed below.
    let (log, read) = WriteAheadLog::open_with(&wal_path, FlushPolicy::Window).expect("reopen WAL");
    let checkpoint: ServiceCheckpoint = load_checkpoint(&ckpt_path).expect("load checkpoint");
    let suffix = read
        .suffix_from(checkpoint.wal_seq)
        .expect("the sealed checkpoint anchors every compaction");
    let mut service =
        DispatchService::restore(sim.engine.clone(), FoodMatchPolicy::new(), &checkpoint);
    let replayed = replay_wal(&mut service, suffix).expect("replay the WAL suffix");
    println!(
        "-- recovered: checkpoint at seq {} + {} replayed records \
         ({} outputs regenerated), clock back at {:?} --",
        checkpoint.wal_seq,
        suffix.len(),
        replayed.len(),
        service.now(),
    );
    println!();

    // The demand feed never died — resume it against the rebuilt service
    // and drain the day.
    let mut durable = DurableDispatch::new(service, log);
    let checkpointer = Checkpointer::new(&ckpt_path);
    pump(&mut durable, &mut demand, None, &checkpointer);
    checkpointer.drain().expect("final checkpoint seals");

    let report = durable.target().report();
    println!();
    println!(
        "day done: {} offered, {} delivered, {} rejected | XDT {:.2} h, {:.2} orders/km",
        report.total_orders,
        report.delivered.len(),
        report.rejected.len(),
        report.total_xdt_hours(),
        report.orders_per_km()
    );
    println!("final {}", dashboard_line());
    println!(
        "trace: {} spans buffered ({} evicted) — export with `repro … --telemetry-out`",
        recorder.trace.len(),
        recorder.trace.dropped()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One dashboard line from the global recorder: sustained ingest rate,
/// advance_to p99, WAL fsync p99, mean group-commit batch size, current
/// acked-lag (records buffered, not yet durable) and the memo hit rate.
fn dashboard_line() -> String {
    let Some(recorder) = foodmatch_telemetry::recorder() else {
        return "telemetry: recorder not installed".to_string();
    };
    let snap = recorder.telemetry.snapshot();
    let ms = |ns: u64| ns as f64 / 1e6;
    let (submits, submit_ns) =
        snap.histogram("service.submit_ns").map_or((0, 0), |h| (h.count, h.sum));
    let ingest_rate = if submit_ns > 0 { submits as f64 / (submit_ns as f64 / 1e9) } else { 0.0 };
    let advance_p99 = snap.histogram("service.advance_ns").and_then(|h| h.quantile(99.0));
    let fsync_p99 = snap.histogram("wal.fsync_ns").and_then(|h| h.quantile(99.0));
    let flush_mean = snap
        .histogram("wal.flush_records")
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum as f64 / h.count as f64);
    let acked_lag =
        snap.gauges.iter().find(|(name, _)| name == "wal.unflushed").map_or(0, |&(_, value)| value);
    let hits = snap.counter_sum("engine.memo.hits");
    let misses = snap.counter_sum("engine.memo.misses");
    let lookups = hits + misses;
    format!(
        "telemetry: ingest {ingest_rate:.0} ord/s | advance p99 {:.2} ms | \
         fsync p99 {:.2} ms | flush batch {flush_mean:.1} | acked lag {acked_lag} | \
         memo hit {:.1}%",
        advance_p99.map_or(0.0, ms),
        fsync_p99.map_or(0.0, ms),
        if lookups > 0 { hits as f64 / lookups as f64 * 100.0 } else { 0.0 },
    )
}

/// Drives the durable service one accumulation window at a time until
/// `stop` (or completion), submitting live demand through the WAL. Every
/// five windows the dispatch thread captures a checkpoint and persists it;
/// once it is sealed, it anchors a WAL compaction.
fn pump(
    durable: &mut DurableService,
    demand: &mut PoissonOrderSource,
    stop: Option<TimePoint>,
    checkpointer: &Checkpointer<ServiceCheckpoint>,
) {
    let mut windows = 0usize;
    while !durable.target().is_finished() {
        let tick = durable.target().now() + durable.target().config().accumulation_window;
        if let Some(stop) = stop {
            if tick >= stop {
                return;
            }
        }

        for order in demand.poll(tick) {
            let _ = durable.submit_order(order).expect("log order");
        }

        for output in durable.advance_to(tick).expect("log advance") {
            match output {
                DispatchOutput::Assigned { order, vehicle, .. } => {
                    println!("{tick:?}  assigned  {order:?} -> {vehicle:?}");
                }
                DispatchOutput::Delivered { order, xdt, .. } => {
                    println!("{tick:?}  delivered {order:?} (XDT {:.1} min)", xdt.as_mins_f64());
                }
                DispatchOutput::Rejected { order, .. } => {
                    println!("{tick:?}  rejected  {order:?}");
                }
                DispatchOutput::WindowClosed { stats } => {
                    let snap = durable.target().snapshot();
                    println!(
                        "{tick:?}  window: {} orders x {} vehicles, {} assigned | \
                         pending {}, in flight {}{}",
                        stats.orders,
                        stats.vehicles,
                        stats.assigned,
                        snap.pending,
                        snap.in_flight,
                        if stats.disrupted { " [disrupted]" } else { "" }
                    );
                    println!("{tick:?}  {}", dashboard_line());
                }
                _ => {}
            }
        }

        windows += 1;
        if windows % 5 == 0 {
            let checkpoint = durable.checkpoint().expect("capture checkpoint");
            let seq = checkpoint.wal_seq;
            checkpointer.save(seq, checkpoint);
            // The seq the save just sealed — or, had it failed, the last
            // one that did: never compact past a sealed checkpoint.
            let sealed = checkpointer.sealed_seq();
            println!("{tick:?}  checkpoint at wal seq {seq} saved (sealed seq {sealed})");
            durable.compact_log(sealed).expect("compact WAL below the sealed checkpoint");
            println!("{tick:?}  wal compacted below sealed seq {sealed}");
        }
    }
}
