//! Crash-safety benchmark: what durability costs and how fast recovery
//! catches up.
//!
//! Not a figure of the paper — this experiment measures the persistence
//! layer around the online dispatch service, in the four motions a
//! crash-safe deployment performs:
//!
//! * **WAL ingest overhead** — `submit_order` through a [`DurableDispatch`]
//!   (frame + checksum + append + flush per order) vs the bare service, as
//!   sustained bursts. The ratio is the price of the write-ahead contract.
//!   A **flush-policy sweep** repeats the durable burst under each
//!   group-commit [`FlushPolicy`], showing how amortising the fsync across
//!   batches buys the overhead back.
//! * **Checkpoint save** — capture + atomically persist the full mid-day
//!   service state (orders, fleet physics, schedule, metrics), timed per
//!   snapshot, with the sealed container size reported. The **capture
//!   stall** row times only the in-thread half of the two-phase background
//!   path ([`DurableDispatch::checkpoint`] +
//!   [`BackgroundCheckpointer::save`]) — the part the dispatch thread
//!   actually pays when persistence moves off-thread.
//! * **Checkpoint restore** — read, verify (magic, length, CRC) and rebuild
//!   a live service from the container.
//! * **Replay catch-up** — drive a whole logged day back through
//!   [`replay_wal`] on a restored service; the catch-up factor is simulated
//!   seconds per wall second, the margin by which recovery outruns the
//!   clock it is chasing.
//!
//! With `--bench-out FILE` the results are additionally written as JSON
//! (`BENCH_recovery.json` in CI) so successive commits can compare the
//! durability trajectory; `scripts/check_bench_regression.py` guards it.

use crate::harness::{header, percentile, ExperimentContext};
use foodmatch_core::PolicyKind;
use foodmatch_sim::{
    load_checkpoint, read_wal_file, replay_wal, save_checkpoint, BackgroundCheckpointer,
    DispatchService, DurableDispatch, FlushPolicy, ServiceCheckpoint, Simulation, WriteAheadLog,
};
use foodmatch_workload::{CityId, Scenario};
use std::path::PathBuf;
use std::time::Instant;

/// One row of the group-commit sweep: the durable burst re-run under a
/// single [`FlushPolicy`].
struct FlushPolicyResult {
    /// Stable label from [`FlushPolicy::label`] (`every-record`,
    /// `every-64`, `window`).
    label: String,
    /// Durable sustained ingest under this policy (orders/sec).
    wal_orders_per_sec: f64,
    /// plain / wal for this policy — the residual durability tax.
    wal_overhead_ratio: f64,
}

/// The measured durability profile of one policy's day.
struct RecoveryResult {
    policy: &'static str,
    orders: usize,
    /// Bare-service sustained ingest (orders/sec) — the no-WAL baseline.
    plain_orders_per_sec: f64,
    /// Ingest through the durable wrapper (orders/sec), every submission
    /// framed, checksummed, appended and flushed before it is applied.
    wal_orders_per_sec: f64,
    /// plain / wal — how many times slower durable ingest is.
    wal_overhead_ratio: f64,
    /// The same burst under each group-commit flush policy (the
    /// `every-record` row repeats the headline pair above).
    flush_policies: Vec<FlushPolicyResult>,
    /// Sealed on-disk size of the mid-day checkpoint container.
    checkpoint_bytes: u64,
    /// Fastest observed snapshot (capture + atomic write). The best-of
    /// estimator is the guarded number: it bounds the true cost from below
    /// and is far less runner-noise-sensitive than a mean of
    /// sub-millisecond samples.
    save_best_ms: f64,
    save_mean_ms: f64,
    save_p90_ms: f64,
    /// In-thread capture stall on the two-phase background path: flush the
    /// WAL, clone the state, hand it to the worker — no serialisation, no
    /// disk wait on the dispatch thread.
    capture_best_ms: f64,
    capture_mean_ms: f64,
    /// Highest sequence the background worker durably sealed before the
    /// final drain — proof the off-thread half actually persisted.
    background_sealed: u64,
    restore_best_ms: f64,
    restore_mean_ms: f64,
    restore_p90_ms: f64,
    /// Records in the full-day log the replay phase consumed.
    replay_records: usize,
    replay_secs: f64,
    replay_records_per_sec: f64,
    /// Simulated seconds recovered per wall-clock second of replay.
    replay_catchup_x: f64,
}

/// Runs the benchmark, prints the tables, and writes `ctx.bench_out` when
/// set.
pub fn run(ctx: &ExperimentContext) {
    header("Crash-safe dispatch — WAL overhead, checkpoint latency, replay catch-up");

    let city = CityId::B;
    let scenario = Scenario::generate(city, ctx.comparison_options());
    let config = scenario.default_config();
    let sim = scenario.into_simulation_with(config);
    println!(
        "scenario: {city:?} lunch peak, {} orders, {} vehicles, delta {:.0}s",
        sim.orders.len(),
        sim.vehicle_starts.len(),
        sim.config.accumulation_window.as_secs_f64()
    );

    let result = bench_policy(&sim, PolicyKind::FoodMatch, ctx.quick);
    print_result(&result);

    if let Some(path) = &ctx.bench_out {
        let json = to_json(ctx, &result);
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write {}: {err}", path.display()),
        }
    }
}

/// Scratch file unique to this process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fm-bench-recovery-{}-{name}", std::process::id()))
}

fn bench_policy(sim: &Simulation, kind: PolicyKind, quick: bool) -> RecoveryResult {
    let orders = sim.orders.len();
    // The WAL burst pays one flush per submission; keep its target an order
    // of magnitude below the plain burst so the phase stays in seconds.
    let (plain_target, wal_target, snapshots): (usize, usize, usize) =
        if quick { (50_000, 10_000, 64) } else { (200_000, 40_000, 128) };

    // Warm-up: fill the shared oracle caches once.
    let mut warm = sim.service(kind.build());
    for order in &sim.orders {
        let _ = warm.submit_order(*order);
    }
    drop(warm);

    // Throughputs are best-of-six chunked bursts: the fastest chunk is
    // the least noise-contaminated estimate of what the machine can
    // actually sustain, so the regression guard does not flap on a busy
    // runner.
    let best_of_chunks = |target: usize, mut burst: Box<dyn FnMut()>| -> f64 {
        let reps = target.div_ceil(orders.max(1)).max(1);
        let chunk = reps.div_ceil(6).max(1);
        let mut best = 0.0f64;
        let mut done = 0;
        while done < reps {
            let n = chunk.min(reps - done);
            let started = Instant::now();
            for _ in 0..n {
                burst();
            }
            let secs = started.elapsed().as_secs_f64();
            best = best.max((orders * n) as f64 / secs.max(f64::EPSILON));
            done += n;
        }
        best
    };

    // Plain sustained ingest — the no-WAL baseline.
    let plain_orders_per_sec = best_of_chunks(
        plain_target,
        Box::new(|| {
            let mut service = sim.service(kind.build());
            for order in &sim.orders {
                let _ = service.submit_order(*order);
            }
        }),
    );

    // Durable sustained ingest — same stream through the write-ahead log,
    // once per flush policy. `every-record` pays one fsync per order and
    // stays the headline (worst-case) pair; the group-commit policies
    // amortise it and should land near the bare-service rate.
    let wal_path = scratch("ingest.wal");
    let durable_burst = |policy: FlushPolicy, target: usize| -> f64 {
        let path = &wal_path;
        best_of_chunks(
            target,
            Box::new(move || {
                let log = WriteAheadLog::create_with(path, policy).expect("create ingest WAL");
                let mut durable = DurableDispatch::new(sim.service(kind.build()), log);
                for order in &sim.orders {
                    let _ = durable.submit_order(*order).expect("durable submit");
                }
                // The drop flushes the final partial group — inside the
                // timed region, so every policy is charged its full fsync
                // bill.
            }),
        )
    };
    let wal_orders_per_sec = durable_burst(FlushPolicy::EveryRecord, wal_target);
    let mut flush_policies = vec![FlushPolicyResult {
        label: FlushPolicy::EveryRecord.label(),
        wal_orders_per_sec,
        wal_overhead_ratio: plain_orders_per_sec / wal_orders_per_sec.max(f64::EPSILON),
    }];
    for policy in [FlushPolicy::EveryN(64), FlushPolicy::Window] {
        // Group-committed bursts run near bare speed: give them the plain
        // target so the measurement window stays comparable.
        let rate = durable_burst(policy, plain_target);
        flush_policies.push(FlushPolicyResult {
            label: policy.label(),
            wal_orders_per_sec: rate,
            wal_overhead_ratio: plain_orders_per_sec / rate.max(f64::EPSILON),
        });
    }
    std::fs::remove_file(&wal_path).ok();

    // Checkpoint save/restore latency, measured on a mid-day service with
    // real in-flight state (routes, carried orders, window history).
    let mut service = sim.service(kind.build());
    for order in &sim.orders {
        let _ = service.submit_order(*order);
    }
    let horizon = sim.end - sim.start;
    let _ = service.advance_to(
        sim.start + foodmatch_roadnet::Duration::from_secs_f64(horizon.as_secs_f64() * 0.5),
    );
    let ckpt_path = scratch("midday.ckpt");
    let mut save_ms = Vec::with_capacity(snapshots);
    for _ in 0..snapshots {
        let started = Instant::now();
        let checkpoint = service.checkpoint();
        save_checkpoint(&ckpt_path, &checkpoint).expect("save checkpoint");
        save_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let checkpoint_bytes = std::fs::metadata(&ckpt_path).map(|m| m.len()).unwrap_or(0);
    let mut restore_ms = Vec::with_capacity(snapshots);
    for _ in 0..snapshots {
        let started = Instant::now();
        let checkpoint: ServiceCheckpoint = load_checkpoint(&ckpt_path).expect("load checkpoint");
        let restored = DispatchService::restore(sim.engine.clone(), kind.build(), &checkpoint);
        restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drop(restored);
    }
    std::fs::remove_file(&ckpt_path).ok();

    // Capture stall: the same mid-day state through the two-phase
    // background path. The dispatch thread pays only flush-barrier +
    // capture + hand-off; serialisation and fsync happen on the worker.
    let capture_wal = scratch("capture.wal");
    let bg_ckpt = scratch("background.ckpt");
    let log = WriteAheadLog::create(&capture_wal).expect("create capture WAL");
    let mut durable = DurableDispatch::new(service, log);
    let checkpointer = BackgroundCheckpointer::service(&bg_ckpt).expect("spawn checkpointer");
    let mut capture_ms = Vec::with_capacity(snapshots);
    for seq in 1..=snapshots as u64 {
        let started = Instant::now();
        let checkpoint = durable.checkpoint().expect("capture checkpoint");
        checkpointer.save(seq, checkpoint);
        capture_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let background_sealed = checkpointer.drain().expect("background checkpoints seal");
    drop(durable);
    std::fs::remove_file(&capture_wal).ok();
    std::fs::remove_file(&bg_ckpt).ok();

    // Replay catch-up: log a full day (just-in-time submissions, one window
    // per advance), then replay it cold onto a fresh service.
    let day_path = scratch("day.wal");
    let log = WriteAheadLog::create(&day_path).expect("create day WAL");
    let mut durable = DurableDispatch::new(sim.service(kind.build()), log);
    let mut pending = sim.orders.clone();
    pending.sort_by(|a, b| {
        a.placed_at.partial_cmp(&b.placed_at).expect("no NaN").then(a.id.cmp(&b.id))
    });
    let mut next = 0usize;
    let window = sim.config.accumulation_window;
    let mut tick = sim.start;
    let drain_end = sim.end + sim.drain_limit;
    while !durable.target().is_finished() && tick < drain_end {
        tick += window;
        while next < pending.len() && pending[next].placed_at <= tick {
            let _ = durable.submit_order(pending[next]).expect("log submit");
            next += 1;
        }
        let _ = durable.advance_to(tick).expect("log advance");
    }
    let simulated_secs = (durable.target().now() - sim.start).as_secs_f64();
    drop(durable);

    // Best of five cold replays: the fastest pass is the stable estimate
    // (a single 0.2s window is too exposed to scheduler noise to guard).
    let outcome = read_wal_file(&day_path).expect("read day WAL");
    let replay_records = outcome.records.len();
    let mut replay_secs = f64::MAX;
    for _ in 0..5 {
        let mut cold = sim.service(kind.build());
        let started = Instant::now();
        let _ = replay_wal(&mut cold, &outcome.records).expect("replay the day");
        replay_secs = replay_secs.min(started.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&day_path).ok();

    let p = |v: &[f64], q: f64| {
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
        percentile(&sorted, q)
    };
    RecoveryResult {
        policy: kind.build().name(),
        orders,
        plain_orders_per_sec,
        wal_orders_per_sec,
        wal_overhead_ratio: plain_orders_per_sec / wal_orders_per_sec.max(f64::EPSILON),
        flush_policies,
        checkpoint_bytes,
        save_best_ms: save_ms.iter().copied().fold(f64::MAX, f64::min),
        save_mean_ms: save_ms.iter().sum::<f64>() / save_ms.len().max(1) as f64,
        save_p90_ms: p(&save_ms, 90.0),
        capture_best_ms: capture_ms.iter().copied().fold(f64::MAX, f64::min),
        capture_mean_ms: capture_ms.iter().sum::<f64>() / capture_ms.len().max(1) as f64,
        background_sealed,
        restore_best_ms: restore_ms.iter().copied().fold(f64::MAX, f64::min),
        restore_mean_ms: restore_ms.iter().sum::<f64>() / restore_ms.len().max(1) as f64,
        restore_p90_ms: p(&restore_ms, 90.0),
        replay_records,
        replay_secs,
        replay_records_per_sec: replay_records as f64 / replay_secs.max(f64::EPSILON),
        replay_catchup_x: simulated_secs / replay_secs.max(f64::EPSILON),
    }
}

fn print_result(result: &RecoveryResult) {
    println!();
    println!(
        "{}: ingest {:.0} orders/s bare vs {:.0} orders/s through the WAL ({:.2}x overhead)",
        result.policy,
        result.plain_orders_per_sec,
        result.wal_orders_per_sec,
        result.wal_overhead_ratio
    );
    println!("  flush-policy sweep (same burst, group-committed fsync):");
    for row in &result.flush_policies {
        println!(
            "    {:<14} {:>9.0} orders/s   {:>7.2}x overhead",
            row.label, row.wal_orders_per_sec, row.wal_overhead_ratio
        );
    }
    println!(
        "  checkpoint: {} bytes sealed | save best {:.2} ms, mean {:.2}, p90 {:.2} | \
         restore best {:.2} ms, mean {:.2}, p90 {:.2}",
        result.checkpoint_bytes,
        result.save_best_ms,
        result.save_mean_ms,
        result.save_p90_ms,
        result.restore_best_ms,
        result.restore_mean_ms,
        result.restore_p90_ms
    );
    println!(
        "  background checkpoint: capture stall best {:.3} ms, mean {:.3} \
         (vs {:.2} ms synchronous save) — worker sealed through seq {}",
        result.capture_best_ms,
        result.capture_mean_ms,
        result.save_best_ms,
        result.background_sealed
    );
    println!(
        "  replay: {} records in {:.3}s ({:.0} records/s) — catches up {:.0}x faster than \
         the simulated clock",
        result.replay_records,
        result.replay_secs,
        result.replay_records_per_sec,
        result.replay_catchup_x
    );
}

/// Serialises the result by hand (the vendored serde is an offline stub);
/// flat, stable keys — CI diffs them.
fn to_json(ctx: &ExperimentContext, r: &RecoveryResult) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"lunch-peak replay through DurableDispatch\",\n");
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    let flush_policies = r
        .flush_policies
        .iter()
        .map(|row| {
            format!(
                "{{\"policy\": \"{}\", \"wal_orders_per_sec\": {:.1}, \
                 \"wal_overhead_ratio\": {:.4}}}",
                row.label, row.wal_orders_per_sec, row.wal_overhead_ratio
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str("  \"recovery\": [\n");
    out.push_str(&format!(
        "    {{\"policy\": \"{}\", \
         \"ingest\": {{\"orders\": {}, \"plain_orders_per_sec\": {:.1}, \
         \"wal_orders_per_sec\": {:.1}, \"wal_overhead_ratio\": {:.4}, \
         \"flush_policies\": [{}]}}, \
         \"checkpoint\": {{\"bytes\": {}, \"save_best_ms\": {:.3}, \"save_mean_ms\": {:.3}, \
         \"save_p90_ms\": {:.3}, \"capture_best_ms\": {:.3}, \"capture_mean_ms\": {:.3}, \
         \"background_sealed\": {}, \
         \"restore_best_ms\": {:.3}, \"restore_mean_ms\": {:.3}, \
         \"restore_p90_ms\": {:.3}}}, \
         \"replay\": {{\"records\": {}, \"secs\": {:.6}, \"records_per_sec\": {:.1}, \
         \"catchup_x\": {:.1}}}}}\n",
        r.policy,
        r.orders,
        r.plain_orders_per_sec,
        r.wal_orders_per_sec,
        r.wal_overhead_ratio,
        flush_policies,
        r.checkpoint_bytes,
        r.save_best_ms,
        r.save_mean_ms,
        r.save_p90_ms,
        r.capture_best_ms,
        r.capture_mean_ms,
        r.background_sealed,
        r.restore_best_ms,
        r.restore_mean_ms,
        r.restore_p90_ms,
        r.replay_records,
        r.replay_secs,
        r.replay_records_per_sec,
        r.replay_catchup_x,
    ));
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_layout_is_wellformed() {
        let ctx = ExperimentContext::default();
        let result = RecoveryResult {
            policy: "FoodMatch",
            orders: 1200,
            plain_orders_per_sec: 250_000.0,
            wal_orders_per_sec: 40_000.0,
            wal_overhead_ratio: 6.25,
            flush_policies: vec![
                FlushPolicyResult {
                    label: "every-record".to_string(),
                    wal_orders_per_sec: 40_000.0,
                    wal_overhead_ratio: 6.25,
                },
                FlushPolicyResult {
                    label: "window".to_string(),
                    wal_orders_per_sec: 240_000.0,
                    wal_overhead_ratio: 1.04,
                },
            ],
            checkpoint_bytes: 180_000,
            save_best_ms: 1.6,
            save_mean_ms: 2.0,
            save_p90_ms: 3.1,
            capture_best_ms: 0.4,
            capture_mean_ms: 0.6,
            background_sealed: 128,
            restore_best_ms: 1.1,
            restore_mean_ms: 1.4,
            restore_p90_ms: 2.2,
            replay_records: 1340,
            replay_secs: 0.8,
            replay_records_per_sec: 1675.0,
            replay_catchup_x: 13_500.0,
        };
        let json = to_json(&ctx, &result);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "wal_overhead_ratio",
            "flush_policies",
            "\"every-record\"",
            "\"window\"",
            "save_best_ms",
            "save_mean_ms",
            "capture_best_ms",
            "background_sealed",
            "restore_best_ms",
            "restore_p90_ms",
            "catchup_x",
            "available_parallelism",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
