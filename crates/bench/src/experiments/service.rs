//! Online dispatch-service benchmark: sustained ingest throughput and
//! per-`advance_to` latency.
//!
//! Not a figure of the paper — this experiment measures the streaming API
//! that fronts the dispatch loop, in the two motions a live deployment
//! performs continuously:
//!
//! * **Ingest** — `submit_order` on the full lunch-peak stream, timed as a
//!   single sustained burst. Each submission computes the order's SDT
//!   baseline (one oracle query), so this is the realistic admission cost,
//!   not a queue push.
//! * **Stepping** — `advance_to`, one accumulation window per call, through
//!   the whole horizon plus the drain phase. Each call advances the fleet,
//!   pulls arrivals, runs the policy and applies the assignment; the
//!   latency distribution (p50/p90/p99/max) is the service's tick budget —
//!   every percentile must sit far below Δ for the dispatcher to keep up
//!   with the clock.
//!
//! With `--bench-out FILE` the results are additionally written as JSON
//! (`BENCH_service.json` in CI) so successive commits can compare the
//! service's ingest and stepping trajectory;
//! `scripts/check_bench_regression.py` guards both.

use crate::harness::{header, percentile, ExperimentContext};
use foodmatch_core::PolicyKind;

use foodmatch_workload::{CityId, Scenario};
use std::time::Instant;

/// One policy's measured service run.
struct ServiceResult {
    policy: &'static str,
    orders: usize,
    /// Total timed submissions (the stream replayed enough times for a
    /// stable clock reading).
    submissions: usize,
    ingest_secs: f64,
    orders_per_sec: f64,
    windows: usize,
    advance_total_secs: f64,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    delivered: usize,
    rejected: usize,
    xdt_hours: f64,
}

/// Runs the benchmark, prints the tables, and writes `ctx.bench_out` when
/// set.
pub fn run(ctx: &ExperimentContext) {
    header("Online dispatch service — ingest throughput and advance_to latency");

    // City B is the largest preset; quick mode shrinks the horizon (via
    // `comparison_options`) but keeps the city so the ingest burst stays
    // large enough for a stable regression baseline.
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

    let policies: &[PolicyKind] = if ctx.quick {
        &[PolicyKind::FoodMatch]
    } else {
        &[PolicyKind::FoodMatch, PolicyKind::Greedy]
    };
    let mut results = Vec::new();
    for &kind in policies {
        let result = bench_policy(&sim, kind);
        print_result(&result);
        results.push(result);
    }

    if let Some(path) = &ctx.bench_out {
        let json = to_json(ctx, &results);
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write {}: {err}", path.display()),
        }
    }
}

/// The timed ingest phase replays the stream into fresh services until at
/// least this many submissions are measured, so the throughput reading is
/// milliseconds of work rather than clock noise.
const TARGET_SUBMISSIONS: usize = 200_000;

fn bench_policy(sim: &foodmatch_sim::Simulation, kind: PolicyKind) -> ServiceResult {
    let orders = sim.orders.len();
    let fresh_service = || sim.service(kind.build());

    // Warm-up round: fills the shared oracle caches and doubles as the
    // service the stepping phase drives afterwards.
    let mut service = fresh_service();
    for order in &sim.orders {
        let _ = service.submit_order(*order);
    }

    // Sustained ingest burst: spin up a service and admit the whole stream,
    // repeated until the measurement is comfortably larger than timer
    // noise. This is the steady-state admission cost (one SDT oracle probe
    // plus queue insertion per order).
    let reps = TARGET_SUBMISSIONS.div_ceil(orders.max(1)).max(1);
    let started = Instant::now();
    for _ in 0..reps {
        let mut throwaway = fresh_service();
        for order in &sim.orders {
            let _ = throwaway.submit_order(*order);
        }
    }
    let ingest_secs = started.elapsed().as_secs_f64();
    let submissions = orders * reps;

    // Tick-driven stepping: one window per advance_to, through the drain.
    let mut latencies_ms: Vec<f64> = Vec::new();
    while !service.is_finished() {
        let tick = service.now() + service.config().accumulation_window;
        let started = Instant::now();
        let _ = service.advance_to(tick);
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let report = service.report();

    let mut sorted = latencies_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    ServiceResult {
        policy: kind.build().name(),
        orders,
        submissions,
        ingest_secs,
        orders_per_sec: if ingest_secs > 0.0 { submissions as f64 / ingest_secs } else { f64::NAN },
        windows: latencies_ms.len(),
        advance_total_secs: latencies_ms.iter().sum::<f64>() / 1e3,
        mean_ms: latencies_ms.iter().sum::<f64>() / latencies_ms.len().max(1) as f64,
        p50_ms: percentile(&sorted, 50.0),
        p90_ms: percentile(&sorted, 90.0),
        p99_ms: percentile(&sorted, 99.0),
        max_ms: sorted.last().copied().unwrap_or(0.0),
        delivered: report.delivered.len(),
        rejected: report.rejected.len(),
        xdt_hours: report.total_xdt_hours(),
    }
}

fn print_result(result: &ServiceResult) {
    println!();
    println!(
        "{}: sustained ingest {} submissions ({}-order stream) in {:.3}s ({:.0} orders/s)",
        result.policy, result.submissions, result.orders, result.ingest_secs, result.orders_per_sec
    );
    println!(
        "  advance_to: {} calls, {:.2}s total | mean {:.2} ms, p50 {:.2}, p90 {:.2}, \
         p99 {:.2}, max {:.2}",
        result.windows,
        result.advance_total_secs,
        result.mean_ms,
        result.p50_ms,
        result.p90_ms,
        result.p99_ms,
        result.max_ms
    );
    println!(
        "  outcome: {} delivered, {} rejected, XDT {:.2} h",
        result.delivered, result.rejected, result.xdt_hours
    );
}

/// Serialises the results by hand (the vendored serde is an offline stub);
/// flat, stable keys — CI diffs them.
fn to_json(ctx: &ExperimentContext, results: &[ServiceResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"scenario\": \"lunch-peak replay through DispatchService\",\n");
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    out.push_str("  \"service\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \
             \"ingest\": {{\"orders\": {}, \"submissions\": {}, \"secs\": {:.6}, \
             \"orders_per_sec\": {:.1}}}, \
             \"advance\": {{\"windows\": {}, \"total_secs\": {:.3}, \"mean_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}}}, \
             \"outcome\": {{\"delivered\": {}, \"rejected\": {}, \"xdt_hours\": {:.4}}}}}{}\n",
            r.policy,
            r.orders,
            r.submissions,
            r.ingest_secs,
            r.orders_per_sec,
            r.windows,
            r.advance_total_secs,
            r.mean_ms,
            r.p50_ms,
            r.p90_ms,
            r.p99_ms,
            r.max_ms,
            r.delivered,
            r.rejected,
            r.xdt_hours,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
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
        let results = vec![ServiceResult {
            policy: "FoodMatch",
            orders: 1200,
            submissions: 24_000,
            ingest_secs: 0.5,
            orders_per_sec: 2400.0,
            windows: 140,
            advance_total_secs: 4.2,
            mean_ms: 30.0,
            p50_ms: 25.0,
            p90_ms: 55.0,
            p99_ms: 80.0,
            max_ms: 95.0,
            delivered: 1150,
            rejected: 50,
            xdt_hours: 12.5,
        }];
        let json = to_json(&ctx, &results);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["orders_per_sec", "p99_ms", "windows", "xdt_hours", "available_parallelism"] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
