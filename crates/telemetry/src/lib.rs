//! # foodmatch-telemetry
//!
//! Zero-dependency observability substrate for the foodmatch stack:
//! named counters, gauges, and log-bucketed fixed-bin histograms in a
//! [`Telemetry`] registry, plus a ring-buffered span trace
//! ([`SpanTrace`]) that exports Chrome trace-event JSON. A [`Recorder`]
//! bundles one of each and can be installed globally; instrumented
//! components acquire handles at construction time and the handles are
//! inert (`None` inside) when no recorder is installed, so the disabled
//! cost is a branch on a local option — no atomics, no clock reads, no
//! allocation.
//!
//! Telemetry is **strictly observational**: recording a metric or span
//! never changes dispatch behaviour. The golden equivalence suites run
//! bit-identical with a live recorder installed
//! (`tests/telemetry_neutrality.rs` pins this).
//!
//! ## Usage
//!
//! ```
//! use foodmatch_telemetry as telemetry;
//!
//! let recorder = telemetry::Recorder::new();
//! telemetry::install(recorder.clone());
//!
//! // Components acquire handles once, then record wait-free.
//! let queries = telemetry::counter("engine.queries");
//! let latency = telemetry::histogram("service.advance_ns");
//! queries.inc();
//! latency.record(12_345);
//! {
//!     let _span = telemetry::span("service", "window");
//!     // ... timed work ...
//! }
//!
//! let snapshot = recorder.telemetry.snapshot();
//! assert_eq!(snapshot.counter("engine.queries"), Some(1));
//! println!("{}", snapshot.to_prometheus());
//! std::fs::write("/tmp/trace.json", recorder.trace.chrome_trace_json()).unwrap();
//! telemetry::uninstall();
//! ```
//!
//! ## Exports
//!
//! * [`TelemetrySnapshot::to_json`] — diffable JSON snapshot
//!   (`repro … --telemetry-out FILE`).
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus text exposition.
//! * [`SpanTrace::chrome_trace_json`] — Chrome trace-event JSON,
//!   loadable in `chrome://tracing` or Perfetto.

mod export;
mod metrics;
mod trace;

pub use export::{HistogramSnapshot, TelemetrySnapshot};
pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramTimer};
pub use trace::{SpanEvent, SpanGuard, SpanTrace};

use metrics::{CounterCell, GaugeCell, HistogramCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Registry of named metrics. Cloning shares the registry; handles stay
/// valid (and visible in snapshots) for the registry's lifetime.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Registry>,
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

impl Telemetry {
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Live counter handle, registering `name` on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("registry poisoned");
        Counter(Some(Arc::clone(counters.entry(name.to_string()).or_default())))
    }

    /// Live gauge handle, registering `name` on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect("registry poisoned");
        Gauge(Some(Arc::clone(gauges.entry(name.to_string()).or_default())))
    }

    /// Live histogram handle, registering `name` on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut histograms = self.inner.histograms.lock().expect("registry poisoned");
        Histogram(Some(Arc::clone(histograms.entry(name.to_string()).or_default())))
    }

    /// Point-in-time copy of every registered metric, name-sorted.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.0.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.0.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, cell)| {
                let buckets = cell
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let count = b.load(Ordering::Relaxed);
                        (count > 0).then_some((i, count))
                    })
                    .collect();
                let snap = HistogramSnapshot {
                    buckets,
                    count: cell.count.load(Ordering::Relaxed),
                    sum: cell.sum.load(Ordering::Relaxed),
                    min: cell.min.load(Ordering::Relaxed),
                    max: cell.max.load(Ordering::Relaxed),
                };
                (name.clone(), snap)
            })
            .collect();
        TelemetrySnapshot { counters, gauges, histograms }
    }
}

/// One metric registry plus one span trace — the unit that installs
/// globally. Cloning shares both.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub telemetry: Telemetry,
    pub trace: SpanTrace,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }
}

/// Fast gate consulted by [`span`]/[`span_dyn`] and handle acquisition.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<Recorder>> = Mutex::new(None);

/// Installs `recorder` as the process-global sink; replaces any previous
/// one. Components constructed afterwards acquire live handles.
pub fn install(recorder: Recorder) {
    let mut global = GLOBAL.lock().expect("global recorder poisoned");
    *global = Some(recorder);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes and returns the global recorder; handles already acquired keep
/// recording into it, newly acquired ones are inert.
pub fn uninstall() -> Option<Recorder> {
    let mut global = GLOBAL.lock().expect("global recorder poisoned");
    ACTIVE.store(false, Ordering::SeqCst);
    global.take()
}

/// True while a recorder is installed.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Clone of the installed recorder, if any.
pub fn recorder() -> Option<Recorder> {
    GLOBAL.lock().expect("global recorder poisoned").clone()
}

/// Counter handle from the installed recorder; inert when none is.
pub fn counter(name: &str) -> Counter {
    match recorder() {
        Some(r) => r.telemetry.counter(name),
        None => Counter::noop(),
    }
}

/// Gauge handle from the installed recorder; inert when none is.
pub fn gauge(name: &str) -> Gauge {
    match recorder() {
        Some(r) => r.telemetry.gauge(name),
        None => Gauge::noop(),
    }
}

/// Histogram handle from the installed recorder; inert when none is.
pub fn histogram(name: &str) -> Histogram {
    match recorder() {
        Some(r) => r.telemetry.histogram(name),
        None => Histogram::noop(),
    }
}

/// Opens a span on the installed recorder's trace. With no recorder the
/// guard is inert and the clock is never read.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard::inactive();
    }
    match recorder() {
        Some(r) => r.trace.span(cat, name),
        None => SpanGuard::inactive(),
    }
}

/// Opens a span with a lazily computed name; the closure (and its
/// formatting cost) only runs when a recorder is installed.
#[inline]
pub fn span_dyn(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if !active() {
        return SpanGuard::inactive();
    }
    match recorder() {
        Some(r) => r.trace.span_dyn(cat, name()),
        None => SpanGuard::inactive(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state; this single test owns
    // every install/uninstall interaction so parallel test threads never
    // race it (module fns are otherwise exercised through the registry).
    #[test]
    #[expect(clippy::disallowed_methods, reason = "the test covers the global lookups")]
    fn global_install_cycle() {
        assert!(!active());
        assert!(!counter("x").is_live());
        assert!(!histogram("x").is_live());

        let recorder = Recorder::new();
        install(recorder.clone());
        assert!(active());
        let c = counter("cycle.count");
        c.add(3);
        {
            let _s = span("test", "cycle");
            let _d = span_dyn("test", || "dyn".to_string());
        }
        let removed = uninstall().expect("a recorder was installed");
        assert!(!active());
        assert!(uninstall().is_none());

        let snap = removed.telemetry.snapshot();
        assert_eq!(snap.counter("cycle.count"), Some(3));
        assert_eq!(snap.counter_sum("cycle."), 3);
        assert_eq!(recorder.trace.len(), 2);

        // Handles acquired while installed keep feeding the registry.
        c.inc();
        assert_eq!(removed.telemetry.snapshot().counter("cycle.count"), Some(4));
    }

    #[test]
    fn registry_snapshot_reads_all_instruments() {
        let telemetry = Telemetry::new();
        telemetry.counter("a.one").add(5);
        telemetry.counter("a.two").add(7);
        telemetry.gauge("g").set(-9);
        let h = telemetry.histogram("h");
        for v in [1u64, 1, 2, 40, 4000] {
            h.record(v);
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter_sum("a."), 12);
        assert_eq!(snap.gauges, vec![("g".to_string(), -9)]);
        let hist = snap.histogram("h").expect("registered");
        assert_eq!(hist.count, 5);
        assert_eq!(hist.min, 1);
        assert_eq!(hist.max, 4000);
        assert_eq!(hist.sum, 4044);
        let (lower, upper) = hist.quantile_bounds(50.0).expect("non-empty");
        assert!(lower <= 2 && 2 <= upper);
    }

    #[test]
    fn histogram_timer_records_a_sample() {
        let telemetry = Telemetry::new();
        let h = telemetry.histogram("t");
        {
            let _timer = h.timer();
            std::hint::black_box(());
        }
        assert_eq!(telemetry.snapshot().histogram("t").expect("registered").count, 1);
    }
}
