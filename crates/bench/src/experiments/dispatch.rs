//! Dispatch hot-path benchmark: per-backend distance-oracle throughput and
//! parallel per-window dispatch latency.
//!
//! Not a figure of the paper — this is the perf-trajectory baseline the
//! ROADMAP asks for. Two measurements:
//!
//! 1. **Oracle throughput** — the same random `SP(u, v, t)` workload on the
//!    City A lunch-peak network against every [`EngineKind`], reporting
//!    nanoseconds per query, queries/second and the speedup over the
//!    plain-Dijkstra baseline (index construction time is reported
//!    separately, never mixed into query time).
//! 2. **Window dispatch wall-clock** — the full FoodMatch pipeline over the
//!    accumulation windows of the City B lunch peak (the busiest table2
//!    preset: enough orders and vehicles per window for the fan-out to
//!    matter) with `num_threads = 1` vs `4`, reporting mean/percentile
//!    per-window latency.
//!
//! With `--bench-out FILE` the results are additionally written as JSON
//! (`BENCH_dispatch.json` in CI) so successive commits can be compared.

use crate::harness::{header, percentile, ExperimentContext};
use foodmatch_core::{DispatchConfig, FoodMatchPolicy};
use foodmatch_roadnet::{EngineKind, NodeId, ShortestPathEngine, TimePoint};
use foodmatch_sim::Simulation;
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Point-to-point queries per backend measurement.
const QUERY_ROUNDS: usize = 8;
/// Distinct random (source, target) pairs in the query workload.
const QUERY_PAIRS: usize = 256;

struct BackendResult {
    kind: EngineKind,
    build_ms: f64,
    ns_per_query: f64,
    queries_per_sec: f64,
    engine_query_count: u64,
}

struct DispatchResult {
    num_threads: usize,
    windows: usize,
    mean_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    engine_query_count: u64,
}

/// Runs the benchmark, prints the tables, and writes `ctx.bench_out` when
/// set.
pub fn run(ctx: &ExperimentContext) {
    header("Dispatch hot path — oracle throughput and parallel window dispatch");

    let scenario = Scenario::generate(CityId::A, query_options(ctx));
    let network = scenario.city.network.clone();
    let t = TimePoint::from_hms(13, 0, 0);

    // Identical random query workload for every backend.
    let mut rng = StdRng::seed_from_u64(ctx.seed.wrapping_mul(0xA24B_AED4).wrapping_add(977));
    let n = network.node_count() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..QUERY_PAIRS)
        .map(|_| (NodeId(rng.random_range(0..n)), NodeId(rng.random_range(0..n))))
        .collect();

    println!(
        "{:<24} {:>12} {:>14} {:>16} {:>10}",
        "Backend", "build (ms)", "ns/query", "queries/sec", "speedup"
    );
    let mut backends: Vec<BackendResult> = Vec::new();
    for kind in EngineKind::ALL {
        let result = bench_backend(&network, kind, &pairs, t);
        backends.push(result);
    }
    let dijkstra_ns = backends
        .iter()
        .find(|b| b.kind == EngineKind::Dijkstra)
        .map(|b| b.ns_per_query)
        .unwrap_or(f64::NAN);
    for backend in &backends {
        println!(
            "{:<24} {:>12.2} {:>14.0} {:>16.0} {:>9.1}x",
            format!("{:?}", backend.kind),
            backend.build_ms,
            backend.ns_per_query,
            backend.queries_per_sec,
            dijkstra_ns / backend.ns_per_query
        );
    }
    let ch_speedup = backends
        .iter()
        .find(|b| b.kind == EngineKind::ContractionHierarchies)
        .map(|b| dijkstra_ns / b.ns_per_query)
        .unwrap_or(f64::NAN);

    println!();
    let dispatch_scenario = Scenario::generate(CityId::B, dispatch_options(ctx));
    println!(
        "{:<14} {:>9} {:>11} {:>10} {:>10} {:>10} {:>10}",
        "Dispatch (B)", "windows", "mean (ms)", "p50", "p90", "p99", "max"
    );
    let dispatch = bench_dispatch_pair(&dispatch_scenario);
    for result in &dispatch {
        println!(
            "{:<14} {:>9} {:>11.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            format!("{} thread(s)", result.num_threads),
            result.windows,
            result.mean_ms,
            result.p50_ms,
            result.p90_ms,
            result.p99_ms,
            result.max_ms
        );
    }
    let parallel_speedup = match (dispatch.first(), dispatch.last()) {
        (Some(serial), Some(parallel)) if parallel.mean_ms > 0.0 => {
            serial.mean_ms / parallel.mean_ms
        }
        _ => f64::NAN,
    };
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!();
    println!("CH speedup over plain Dijkstra: {ch_speedup:.1}x (point-to-point queries)");
    println!(
        "4-thread dispatch speedup over serial: {parallel_speedup:.2}x (mean window, \
         {cores} core(s) available{})",
        if cores == 1 { "; expect parity on a single core" } else { "" }
    );

    if let Some(path) = &ctx.bench_out {
        let json = to_json(ctx, &backends, ch_speedup, &dispatch, parallel_speedup);
        match std::fs::write(path, json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(err) => eprintln!("failed to write {}: {err}", path.display()),
        }
    }
}

fn query_options(ctx: &ExperimentContext) -> ScenarioOptions {
    let mut options = ScenarioOptions::lunch_peak(ctx.seed);
    if ctx.quick {
        options.start = TimePoint::from_hms(12, 0, 0);
        options.end = TimePoint::from_hms(13, 0, 0);
    }
    options
}

fn dispatch_options(ctx: &ExperimentContext) -> ScenarioOptions {
    let mut options = ScenarioOptions::lunch_peak(ctx.seed);
    if ctx.quick {
        options.start = TimePoint::from_hms(12, 0, 0);
        options.end = TimePoint::from_hms(12, 45, 0);
    }
    options
}

fn bench_backend(
    network: &foodmatch_roadnet::RoadNetwork,
    kind: EngineKind,
    pairs: &[(NodeId, NodeId)],
    t: TimePoint,
) -> BackendResult {
    let engine = ShortestPathEngine::new(network.clone(), kind);
    // Index construction (and, for the cached engine, one priming pass) is
    // measured separately so query time reflects the steady state.
    let build_started = Instant::now();
    engine.warm_up(t.hour_slot());
    if kind == EngineKind::Cached {
        for &(a, b) in pairs {
            black_box(engine.travel_time(a, b, t));
        }
    }
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;

    // Best-of-3: the min is the noise-robust estimator on a shared box.
    let mut elapsed = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        for _ in 0..QUERY_ROUNDS {
            for &(a, b) in pairs {
                black_box(engine.travel_time(a, b, t));
            }
        }
        elapsed = elapsed.min(started.elapsed().as_secs_f64());
    }
    let queries = (QUERY_ROUNDS * pairs.len()) as f64;
    BackendResult {
        kind,
        build_ms,
        ns_per_query: elapsed * 1e9 / queries,
        queries_per_sec: queries / elapsed,
        engine_query_count: engine.query_count(),
    }
}

/// Benchmarks serial (`num_threads = 1`) against 4-thread dispatch.
///
/// The two legs are *interleaved* round-robin with alternating order (3
/// rounds, best-of per leg), each against a fresh cached engine so every run
/// measures the same cold-cache, route-planning-heavy regime. Interleaving
/// matters: on throttled/shared machines wall-clock drifts over the
/// benchmark's lifetime, and running one leg entirely after the other would
/// charge that drift to whichever went second.
fn bench_dispatch_pair(scenario: &Scenario) -> Vec<DispatchResult> {
    const LEGS: [usize; 2] = [1, 4];
    let mut best: [Option<(foodmatch_sim::SimulationReport, u64)>; 2] = [None, None];
    for round in 0..3 {
        for position in 0..LEGS.len() {
            let leg = (round + position) % LEGS.len();
            let (run, queries) = run_dispatch_once(scenario, LEGS[leg]);
            let better = best[leg]
                .as_ref()
                .is_none_or(|(r, _)| run.mean_window_compute_secs() < r.mean_window_compute_secs());
            if better {
                best[leg] = Some((run, queries));
            }
        }
    }
    LEGS.iter()
        .zip(best)
        .map(|(&num_threads, slot)| {
            let (report, queries) = slot.expect("every leg ran");
            summarise_dispatch(num_threads, &report, queries)
        })
        .collect()
}

fn run_dispatch_once(
    scenario: &Scenario,
    num_threads: usize,
) -> (foodmatch_sim::SimulationReport, u64) {
    let config = DispatchConfig { num_threads, ..scenario.default_config() };
    let engine = ShortestPathEngine::cached(scenario.city.network.clone());
    let simulation = Simulation::new(
        engine.clone(),
        scenario.orders.clone(),
        scenario.vehicle_starts.clone(),
        config,
        scenario.options.start,
        scenario.options.end,
    );
    let report = simulation.run(&mut FoodMatchPolicy::new());
    let queries = engine.query_count();
    (report, queries)
}

fn summarise_dispatch(
    num_threads: usize,
    report: &foodmatch_sim::SimulationReport,
    queries: u64,
) -> DispatchResult {
    let mut window_ms: Vec<f64> = report.windows.iter().map(|w| w.compute_secs * 1e3).collect();
    window_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    let mean_ms = if window_ms.is_empty() {
        0.0
    } else {
        window_ms.iter().sum::<f64>() / window_ms.len() as f64
    };
    DispatchResult {
        num_threads,
        windows: window_ms.len(),
        mean_ms,
        p50_ms: percentile(&window_ms, 50.0),
        p90_ms: percentile(&window_ms, 90.0),
        p99_ms: percentile(&window_ms, 99.0),
        max_ms: window_ms.last().copied().unwrap_or(0.0),
        engine_query_count: queries,
    }
}

/// Serialises the results by hand: the vendored serde is an offline stub, so
/// the JSON layout lives here (flat, stable keys — CI diffs them).
fn to_json(
    ctx: &ExperimentContext,
    backends: &[BackendResult],
    ch_speedup: f64,
    dispatch: &[DispatchResult],
    parallel_speedup: f64,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"scenario\": {\"queries\": \"city-A lunch-peak\", \"dispatch\": \"city-B lunch-peak\"},\n",
    );
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(&format!("  \"quick\": {},\n", ctx.quick));
    out.push_str(&format!(
        "  \"available_parallelism\": {},\n",
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    ));
    out.push_str(&format!(
        "  \"query_workload\": {{\"pairs\": {QUERY_PAIRS}, \"rounds\": {QUERY_ROUNDS}}},\n"
    ));
    out.push_str("  \"backends\": [\n");
    for (i, b) in backends.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kind\": \"{:?}\", \"build_ms\": {:.3}, \"ns_per_query\": {:.1}, \
             \"queries_per_sec\": {:.1}, \"engine_query_count\": {}}}{}\n",
            b.kind,
            b.build_ms,
            b.ns_per_query,
            b.queries_per_sec,
            b.engine_query_count,
            if i + 1 < backends.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"ch_speedup_vs_dijkstra\": {ch_speedup:.2},\n"));
    out.push_str("  \"dispatch\": [\n");
    for (i, d) in dispatch.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"num_threads\": {}, \"windows\": {}, \"mean_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p90_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_ms\": {:.3}, \
             \"engine_query_count\": {}}}{}\n",
            d.num_threads,
            d.windows,
            d.mean_ms,
            d.p50_ms,
            d.p90_ms,
            d.p99_ms,
            d.max_ms,
            d.engine_query_count,
            if i + 1 < dispatch.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"parallel_speedup_mean\": {parallel_speedup:.3}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_layout_is_wellformed() {
        let ctx = ExperimentContext::default();
        let backends = vec![BackendResult {
            kind: EngineKind::Dijkstra,
            build_ms: 0.0,
            ns_per_query: 1500.0,
            queries_per_sec: 666_666.0,
            engine_query_count: 2048,
        }];
        let dispatch = vec![DispatchResult {
            num_threads: 1,
            windows: 10,
            mean_ms: 4.2,
            p50_ms: 4.0,
            p90_ms: 6.0,
            p99_ms: 7.5,
            max_ms: 8.0,
            engine_query_count: 123,
        }];
        let json = to_json(&ctx, &backends, 12.0, &dispatch, 1.8);
        // Balanced braces/brackets and the headline keys present.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["ch_speedup_vs_dijkstra", "parallel_speedup_mean", "ns_per_query"] {
            assert!(json.contains(key), "missing {key}");
        }
    }
}
