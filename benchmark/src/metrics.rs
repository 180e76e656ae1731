//! The metric tables: every name the benchmark reports, with its unit —
//! the same names, units, directions and bounds `BENCHMARK.json` lists.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

/// An end-to-end metric: what a user of the dispatcher would see.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (ticks, spans, orders, instances…).
    pub samples: usize,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEndDef {
    EndToEndDef { name, unit, higher_is_better: higher, bound }
}

/// From the untraced pass, the same set on every workload. The bounds sit
/// at the 0.25 the accepting driver allows at most: 1.5 to 3 times the
/// widest seed-to-seed quartile spread measured on the 2-core sandbox this
/// was built in (README, "Steadiness").
pub const END_TO_END: [EndToEndDef; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("orders_per_sec", "orders/s", true, 0.25),
    e2e("cpu_ms_per_order", "ms", false, 0.25),
    e2e("tick_ms_p50", "ms", false, 0.25),
    e2e("tick_ms_p90", "ms", false, 0.25),
    e2e("xdt_min_per_order", "min", false, 0.25),
    e2e("delivered_share", "ratio", true, 0.02),
    e2e("peak_rss_mb", "MiB", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// From the traced pass, named by the module they measure.
pub const PER_LAYER: [MetricDef; 62] = [
    layer("roadnet.queries", "count"),
    layer("roadnet.queries_per_order", "1/order"),
    layer("roadnet.memo_hit_share", "ratio"),
    layer("roadnet.overlay_memo_hit_share", "ratio"),
    layer("roadnet.backend_searches", "count"),
    layer("roadnet.probe_hit_ns", "ns"),
    layer("roadnet.probe_miss_us", "us"),
    layer("roadnet.probe_overlay_miss_us", "us"),
    layer("batching.calls", "count"),
    layer("batching.busy_ms", "ms"),
    layer("batching.share", "ratio"),
    layer("batching.orders_in", "count"),
    layer("batching.batches_out", "count"),
    layer("batching.merges", "count"),
    layer("batching.queries", "count"),
    layer("foodgraph.busy_ms", "ms"),
    layer("foodgraph.share", "ratio"),
    layer("foodgraph.evaluations", "count"),
    layer("foodgraph.explicit_edges", "count"),
    layer("foodgraph.edges_per_evaluation", "ratio"),
    layer("foodgraph.queries", "count"),
    layer("matching.busy_ms", "ms"),
    layer("matching.share", "ratio"),
    layer("matching.solve_us_p50", "us"),
    layer("matching.rows_mean", "count"),
    layer("matching.cols_mean", "count"),
    layer("matching.matched_share", "ratio"),
    layer("policy.self_ms", "ms"),
    layer("service.advance_calls", "count"),
    layer("service.busy_ms", "ms"),
    layer("service.self_ms", "ms"),
    layer("service.self_share", "ratio"),
    layer("service.submit_us_p50", "us"),
    layer("service.outputs", "count"),
    layer("router.shard_busy_sum_ms", "ms"),
    layer("router.parallel_efficiency", "ratio"),
    layer("router.imbalance_share", "ratio"),
    layer("events.ingested", "count"),
    layer("events.ingest_us_p50", "us"),
    layer("wal.records", "count"),
    layer("wal.bytes", "bytes"),
    layer("wal.bytes_per_order", "bytes"),
    layer("wal.flushes", "count"),
    layer("wal.records_per_flush", "count"),
    layer("wal.submit_us_p50", "us"),
    layer("wal.fsync_ms_total", "ms"),
    layer("checkpoint.captures", "count"),
    layer("checkpoint.capture_us_p50", "us"),
    layer("checkpoint.persist_ms_p50", "ms"),
    layer("checkpoint.bytes", "bytes"),
    layer("checkpoint.compact_ms_total", "ms"),
    layer("durable.recover_ms", "ms"),
    layer("durable.replay_ms", "ms"),
    layer("durable.replay_records", "count"),
    layer("durable.acked_lag_max", "count"),
    layer("workload.generate_ms", "ms"),
    layer("workload.orders", "count"),
    layer("workload.events", "count"),
    layer("workload.ticks", "count"),
    layer("trace.overhead_share", "ratio"),
    layer("trace.spans", "count"),
    layer("trace.coverage_share", "ratio"),
];

/// The `metrics` object of a run's result line.
pub fn metrics_json(metrics: &[Measured]) -> Json {
    Json::obj(
        metrics.iter().map(|m| {
            (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract other tools read; the tables above
    /// are what the program prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for def in END_TO_END {
            let better = if def.higher_is_better { "higher" } else { "lower" };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                def.name, def.unit, def.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for def in PER_LAYER {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", def.name, def.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("{\"name\": ").count();
        let workloads = crate::workloads::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(names.iter().all(|n| n.len() <= 64 && n.chars().all(ok)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && !d.higher_is_better));
    }
}
