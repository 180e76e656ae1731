//! Per-layer metrics of the traced pass, named by the module they measure.
//!
//! Inputs: the benchmark's span log (with the program's own `shard` and
//! `checkpoint/persist` spans imported), the staged policy's per-window
//! records, the counters the program exports through
//! `foodmatch_telemetry`, and three oracle probes. Instances are pooled:
//! counts and busy times add up, shares are ratios of the sums, medians
//! are taken over the pooled samples.

use crate::drive::Drive;
use crate::metrics::{Measured, PER_LAYER};
use crate::spans::{self_times, Span, ROOT};
use crate::staged::WindowRecord;
use crate::stats::{median, sorted};
use crate::workloads::{Shape, World};
use foodmatch_events::{EventKind, EventSchedule};
use foodmatch_roadnet::{NodeId, ShortestPathEngine};
use foodmatch_telemetry::{HistogramSnapshot, TelemetrySnapshot};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Running sums and pooled samples over the traced instances of a run.
#[derive(Debug, Default)]
pub struct Layers {
    instances: usize,
    threads: usize,
    routed: bool,
    /// Σ duration and Σ self time of spans, by name (`zone*` folded to `zone`).
    busy_ns: HashMap<&'static str, u64>,
    self_ns: HashMap<&'static str, u64>,
    calls: HashMap<&'static str, usize>,
    /// Span durations in ns, by the names medians are reported for.
    samples: HashMap<&'static str, Vec<f64>>,
    /// The program's own `wal.append_ns` histogram: an append is well under
    /// a microsecond, below what its exported spans resolve.
    wal_append_ns: Option<HistogramSnapshot>,
    /// Per tick with zone spans: 1 − mean ÷ max zone busy.
    imbalance: Vec<f64>,
    tick_wall_ns: u64,
    tick_self_ns: u64,
    attributed_ns: u64,
    spans: usize,
    windows: Vec<WindowRecord>,
    counters: BTreeMap<&'static str, u64>,
    offered: usize,
    events: usize,
    ticks: usize,
    outputs: usize,
    generate_ms: Vec<f64>,
    untraced_wall_s: f64,
    traced_wall_s: f64,
    recover_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    replay_records: usize,
    acked_lag_max: u64,
    checkpoint_bytes: u64,
    probes: Option<Probes>,
}

/// Per-query oracle prices on a fixed pair set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Probes {
    pub hit_ns: f64,
    pub miss_us: f64,
    pub overlay_miss_us: f64,
    pub pairs: usize,
}

/// Names every span folds to for the per-name sums.
fn fold(name: &str) -> Option<&'static str> {
    const NAMES: [&str; 13] = [
        "tick",
        "submit",
        "ingest",
        "advance",
        "policy.assign",
        "batching",
        "foodgraph",
        "matching",
        "validate",
        "checkpoint.capture",
        "compact",
        "checkpoint.persist",
        "zone",
    ];
    let name = if name.starts_with("zone") { "zone" } else { name };
    NAMES.into_iter().find(|&n| n == name)
}

impl Layers {
    /// Adds one instance: its traced pass (`spans`, `windows`, `snapshot`,
    /// `traced`) and the untraced pass it is compared with.
    pub fn add_instance(
        &mut self,
        world: &World,
        spans: &[Span],
        windows: Vec<WindowRecord>,
        snapshot: &TelemetrySnapshot,
        untraced: &Drive,
        traced: &Drive,
    ) {
        self.instances += 1;
        self.threads = world.config.effective_threads();
        self.routed = matches!(world.shape, Shape::Routed(_));
        let own = self_times(spans);
        let mut zone_busy_by_tick: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
        for span in spans {
            let Some(name) = fold(&span.name) else { continue };
            let self_ns = own[&span.id];
            *self.busy_ns.entry(name).or_default() += span.dur_ns();
            *self.self_ns.entry(name).or_default() += self_ns;
            *self.calls.entry(name).or_default() += 1;
            self.samples.entry(name).or_default().push(span.dur_ns() as f64);
            match name {
                "tick" => {
                    self.tick_wall_ns += span.dur_ns();
                    self.tick_self_ns += self_ns;
                }
                "zone" => {
                    zone_busy_by_tick.entry(span.tick).or_default().push(span.dur_ns() as f64)
                }
                _ => {}
            }
            // The checkpoint worker runs beside the dispatch thread, under
            // no tick; everything else is time some tick is waiting for.
            if span.parent != ROOT || name == "tick" {
                self.attributed_ns += self_ns;
            }
        }
        for busy in zone_busy_by_tick.values() {
            let max = busy.iter().copied().fold(0.0, f64::max);
            if max > 0.0 {
                self.imbalance.push(1.0 - busy.iter().sum::<f64>() / busy.len() as f64 / max);
            }
        }
        self.spans += spans.len();
        self.windows.extend(windows);

        for (key, prefix) in [
            ("queries", "engine.queries"),
            ("memo_hits", "engine.memo.hits"),
            ("memo_misses", "engine.memo.misses"),
            ("overlay_hits", "engine.overlay_memo.hits"),
            ("overlay_misses", "engine.overlay_memo.misses"),
            ("backend", "engine.backend."),
            ("wal_records", "wal.records"),
            ("wal_bytes", "wal.bytes"),
        ] {
            *self.counters.entry(key).or_default() += snapshot.counter_sum(prefix);
        }
        if let Some(fsync) = snapshot.histogram("wal.fsync_ns") {
            *self.counters.entry("wal_flushes").or_default() += fsync.count;
            *self.counters.entry("wal_fsync_ns").or_default() += fsync.sum;
        }
        if let Some(append) = snapshot.histogram("wal.append_ns") {
            self.wal_append_ns = Some(
                self.wal_append_ns.as_ref().map_or_else(|| append.clone(), |h| h.merge(append)),
            );
        }

        self.offered += traced.offered.len();
        self.events += traced.events_ingested;
        self.ticks += traced.tick_ms.len();
        self.outputs += traced.outputs.len();
        self.generate_ms.push(world.generate_ms);
        self.untraced_wall_s += untraced.wall_s;
        self.traced_wall_s += traced.wall_s;
        if matches!(world.shape, Shape::Durable) {
            // The drill runs in the untraced pass only.
            self.recover_ms.push(untraced.durable.recover_ms);
            self.replay_ms.push(untraced.durable.replay_ms);
            self.replay_records += untraced.durable.replay_records;
            self.acked_lag_max = self.acked_lag_max.max(traced.durable.acked_lag_max);
            self.checkpoint_bytes = self.checkpoint_bytes.max(traced.durable.checkpoint_bytes);
        }
    }

    pub fn set_probes(&mut self, probes: Probes) {
        self.probes = Some(probes);
    }

    /// Every per-layer metric, in [`PER_LAYER`] order; layers a workload
    /// does not exercise report zero.
    pub fn finish(&self) -> Vec<Measured> {
        let busy = |name| self.busy_ns.get(name).copied().unwrap_or(0) as f64;
        let own = |name| self.self_ns.get(name).copied().unwrap_or(0) as f64;
        let calls = |name| self.calls.get(name).copied().unwrap_or(0);
        let durations = |name: &str| self.samples.get(name).map_or(&[][..], Vec::as_slice);
        let counter = |key| self.counters.get(key).copied().unwrap_or(0) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let share = |ns: f64| ratio(ns, self.attributed_ns as f64);
        let sum = |f: fn(&WindowRecord) -> f64| self.windows.iter().map(f).sum::<f64>();
        let solved: Vec<&WindowRecord> = self.windows.iter().filter(|w| w.solved).collect();
        let mean_of = |f: fn(&WindowRecord) -> f64| {
            ratio(solved.iter().map(|w| f(w)).sum::<f64>(), solved.len() as f64)
        };
        // In a router the per-zone services do the window work and the
        // `advance` span keeps only the fan-out and merge.
        let service = if self.routed { "zone" } else { "advance" };
        let probes = self.probes.unwrap_or(Probes {
            hit_ns: 0.0,
            miss_us: 0.0,
            overlay_miss_us: 0.0,
            pairs: 0,
        });
        let offered = self.offered as f64;

        let mut values: HashMap<&'static str, (f64, usize)> = HashMap::new();
        let mut put = |name, value: f64, samples: usize| {
            let clash = values.insert(name, (value, samples));
            assert!(clash.is_none(), "per-layer metric {name} computed twice");
        };
        let n = self.instances;

        put("roadnet.queries", counter("queries"), n);
        put("roadnet.queries_per_order", ratio(counter("queries"), offered), self.offered);
        let memo = counter("memo_hits") + counter("memo_misses");
        put("roadnet.memo_hit_share", ratio(counter("memo_hits"), memo), memo as usize);
        let overlay = counter("overlay_hits") + counter("overlay_misses");
        put(
            "roadnet.overlay_memo_hit_share",
            ratio(counter("overlay_hits"), overlay),
            overlay as usize,
        );
        put("roadnet.backend_searches", counter("backend"), n);
        put("roadnet.probe_hit_ns", probes.hit_ns, probes.pairs);
        put("roadnet.probe_miss_us", probes.miss_us, probes.pairs);
        put("roadnet.probe_overlay_miss_us", probes.overlay_miss_us, probes.pairs);

        put("batching.calls", calls("batching") as f64, n);
        put("batching.busy_ms", busy("batching") / MS, calls("batching"));
        put("batching.share", share(busy("batching")), calls("batching"));
        put("batching.orders_in", sum(|w| w.orders_in as f64), self.windows.len());
        put("batching.batches_out", sum(|w| w.batches_out as f64), self.windows.len());
        put("batching.merges", sum(|w| w.merges as f64), self.windows.len());
        put("batching.queries", sum(|w| w.batching_queries as f64), self.windows.len());

        let evaluations = sum(|w| w.evaluations as f64);
        let edges = sum(|w| w.explicit_edges as f64);
        put("foodgraph.busy_ms", busy("foodgraph") / MS, calls("foodgraph"));
        put("foodgraph.share", share(busy("foodgraph")), calls("foodgraph"));
        put("foodgraph.evaluations", evaluations, self.windows.len());
        put("foodgraph.explicit_edges", edges, self.windows.len());
        put("foodgraph.edges_per_evaluation", ratio(edges, evaluations), evaluations as usize);
        put("foodgraph.queries", sum(|w| w.foodgraph_queries as f64), self.windows.len());

        let returned = sum(|w| w.pairs_returned as f64);
        put("matching.busy_ms", busy("matching") / MS, calls("matching"));
        put("matching.share", share(busy("matching")), calls("matching"));
        put("matching.solve_us_p50", median(durations("matching")) / US, calls("matching"));
        put("matching.rows_mean", mean_of(|w| w.rows as f64), solved.len());
        put("matching.cols_mean", mean_of(|w| w.cols as f64), solved.len());
        put(
            "matching.matched_share",
            ratio(sum(|w| w.pairs_under_omega as f64), returned),
            returned as usize,
        );

        put("policy.self_ms", own("policy.assign") / MS, calls("policy.assign"));

        put("service.advance_calls", calls("advance") as f64, n);
        put("service.busy_ms", busy(service) / MS, calls(service));
        put("service.self_ms", own(service) / MS, calls(service));
        put("service.self_share", share(own(service)), calls(service));
        put("service.submit_us_p50", median(durations("submit")) / US, calls("submit"));
        put("service.outputs", self.outputs as f64, n);

        let advance_wall = busy("advance");
        let zone_busy = if self.routed { busy("zone") } else { 0.0 };
        put("router.shard_busy_sum_ms", zone_busy / MS, calls("zone"));
        put(
            "router.parallel_efficiency",
            ratio(zone_busy, self.threads as f64 * advance_wall),
            calls("zone"),
        );
        put(
            "router.imbalance_share",
            ratio(self.imbalance.iter().sum(), self.imbalance.len() as f64),
            self.imbalance.len(),
        );

        put("events.ingested", calls("ingest") as f64, n);
        put("events.ingest_us_p50", median(durations("ingest")) / US, calls("ingest"));

        let flushes = counter("wal_flushes");
        put("wal.records", counter("wal_records"), n);
        put("wal.bytes", counter("wal_bytes"), n);
        put("wal.bytes_per_order", ratio(counter("wal_bytes"), offered), self.offered);
        put("wal.flushes", flushes, n);
        put("wal.records_per_flush", ratio(counter("wal_records"), flushes), flushes as usize);
        let appends = self.wal_append_ns.as_ref();
        put(
            "wal.submit_us_p50",
            appends.and_then(|h| h.quantile(50.0)).unwrap_or(0) as f64 / US,
            appends.map_or(0, |h| h.count as usize),
        );
        put("wal.fsync_ms_total", counter("wal_fsync_ns") / MS, flushes as usize);

        let captures = calls("checkpoint.capture");
        put("checkpoint.captures", captures as f64, n);
        put("checkpoint.capture_us_p50", median(durations("checkpoint.capture")) / US, captures);
        put(
            "checkpoint.persist_ms_p50",
            median(durations("checkpoint.persist")) / MS,
            calls("checkpoint.persist"),
        );
        put("checkpoint.bytes", self.checkpoint_bytes as f64, n);
        put("checkpoint.compact_ms_total", busy("compact") / MS, calls("compact"));

        put("durable.recover_ms", median(&self.recover_ms), self.recover_ms.len());
        put("durable.replay_ms", median(&self.replay_ms), self.replay_ms.len());
        put("durable.replay_records", self.replay_records as f64, self.recover_ms.len());
        put("durable.acked_lag_max", self.acked_lag_max as f64, self.recover_ms.len());

        put("workload.generate_ms", median(&self.generate_ms), n);
        put("workload.orders", offered, n);
        put("workload.events", self.events as f64, n);
        put("workload.ticks", self.ticks as f64, n);

        put(
            "trace.overhead_share",
            ratio(self.traced_wall_s, self.untraced_wall_s) - 1.0,
            self.ticks,
        );
        put("trace.spans", self.spans as f64, n);
        put(
            "trace.coverage_share",
            1.0 - ratio(self.tick_self_ns as f64, self.tick_wall_ns as f64),
            self.ticks,
        );

        PER_LAYER
            .iter()
            .map(|def| {
                let (value, samples) = values
                    .remove(def.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} has no formula", def.name));
                Measured { name: def.name, unit: def.unit, value, samples }
            })
            .collect()
    }
}

/// Times the oracle on a fixed set of up to 4096 distinct restaurant →
/// customer pairs drawn from `world`'s orders, at mid-horizon: a memo hit,
/// a cold miss on a fresh engine, and a cold miss under the first traffic
/// incident's overlay (zero when the workload has none).
pub fn probe(world: &World) -> Probes {
    const PAIRS: usize = 4096;
    let n = world.orders.len();
    let mut seen = HashSet::new();
    let pairs: Vec<(NodeId, NodeId)> = (0..PAIRS * 8)
        .map(|i| (world.orders[i % n].restaurant, world.orders[(i * 31 + i / n + 7) % n].customer))
        .filter(|&(from, to)| from != to && seen.insert((from, to)))
        .take(PAIRS)
        .collect();
    let at = world.start + (world.end - world.start) * 0.5;
    let sweep = |engine: &ShortestPathEngine| {
        let started = Instant::now();
        for &(from, to) in &pairs {
            std::hint::black_box(engine.travel_time(from, to, at));
        }
        started.elapsed().as_nanos() as f64 / pairs.len() as f64
    };

    let engine = ShortestPathEngine::cached(world.network.clone());
    let miss_ns = sweep(&engine);
    let hit_ns = sorted(&[sweep(&engine), sweep(&engine), sweep(&engine)])[1];

    let incident = world.events.iter().find(|e| matches!(e.kind, EventKind::Traffic(_)));
    let overlay_miss_ns = incident.map_or(0.0, |&event| {
        let mut schedule = EventSchedule::new(vec![event]);
        let _ = schedule.advance_to(event.at);
        let engine = ShortestPathEngine::cached(world.network.clone());
        engine.set_overlay(schedule.overlay(&world.network));
        sweep(&engine)
    });
    Probes {
        hit_ns,
        miss_us: miss_ns / US,
        overlay_miss_us: overlay_miss_ns / US,
        pairs: pairs.len(),
    }
}
