//! Metric cells and the handles that feed them.
//!
//! Three instrument kinds, all lock-free on the record path:
//!
//! * [`Counter`] — a monotonically increasing `u64`.
//! * [`Gauge`] — a signed value that can move both ways.
//! * [`Histogram`] — a log-bucketed fixed-bin distribution of `u64`
//!   samples (typically nanoseconds), cheap enough for per-call latency
//!   tracking and mergeable across shards.
//!
//! Every handle is an `Option<Arc<cell>>`: a handle acquired while no
//! recorder is installed (or built with `noop()`) carries `None` and every
//! operation on it is a branch on a local option — no atomics, no clock
//! reads. This is what keeps disabled overhead near zero: components cache
//! handles at construction time and the hot path never consults any global
//! state.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of low-order value bits resolved exactly within each octave.
/// Eight sub-buckets per octave bound the relative bucket width at 12.5%.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (`2^SUB_BITS`).
const SUBS: u64 = 1 << SUB_BITS;
/// Values below this are binned exactly (one value per bucket).
const EXACT: u64 = SUBS * 2;
/// Total fixed bin count covering the full `u64` range:
/// 16 exact bins + 60 octaves × 8 sub-buckets.
pub const BUCKETS: usize = (EXACT + (63 - SUB_BITS as u64) * SUBS) as usize;

/// Maps a sample to its bucket index. Exact below `EXACT`; above, the
/// top `SUB_BITS + 1` significant bits select the bin.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < EXACT {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = (value >> shift) & (SUBS - 1);
        (EXACT + (msb as u64 - SUB_BITS as u64 - 1) * SUBS + sub) as usize
    }
}

/// Inclusive `[lower, upper]` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < EXACT {
        (index, index)
    } else {
        let oct = (index - EXACT) / SUBS;
        let sub = (index - EXACT) % SUBS;
        let shift = (oct + 1) as u32;
        let lower = (SUBS + sub) << shift;
        (lower, lower + ((1u64 << shift) - 1))
    }
}

/// Shared counter cell.
#[derive(Debug, Default)]
pub(crate) struct CounterCell(pub(crate) AtomicU64);

/// Shared gauge cell.
#[derive(Debug, Default)]
pub(crate) struct GaugeCell(pub(crate) AtomicI64);

/// Shared histogram cell: fixed log-linear bins plus running aggregates.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    pub(crate) buckets: Box<[AtomicU64]>,
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) min: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        let buckets = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// Monotonic counter handle; `noop()` handles drop every update.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<CounterCell>>);

impl Counter {
    /// A handle that ignores every update.
    pub const fn noop() -> Self {
        Counter(None)
    }

    /// True when updates reach a live registry.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.0.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Signed gauge handle; `noop()` handles drop every update.
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<GaugeCell>>);

impl Gauge {
    /// A handle that ignores every update.
    pub const fn noop() -> Self {
        Gauge(None)
    }

    /// True when updates reach a live registry.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn set(&self, value: i64) {
        if let Some(cell) = &self.0 {
            cell.0.store(value, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.0 {
            cell.0.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// Histogram handle; `noop()` handles drop every sample and hand out
/// timers that never read the clock.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCell>>);

impl Histogram {
    /// A handle that ignores every sample.
    pub const fn noop() -> Self {
        Histogram(None)
    }

    /// True when samples reach a live registry.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.record(value);
        }
    }

    /// Starts a scoped timer that records elapsed nanoseconds on drop.
    /// On a noop handle the clock is never read.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "a noop handle never reads the clock")]
    pub fn timer(&self) -> HistogramTimer {
        HistogramTimer(self.0.as_ref().map(|cell| (Arc::clone(cell), Instant::now())))
    }
}

/// Guard returned by [`Histogram::timer`]; records on drop.
#[derive(Debug)]
#[must_use = "the timer records when dropped; binding it to _ ends it immediately"]
pub struct HistogramTimer(Option<(Arc<HistogramCell>, Instant)>);

impl Drop for HistogramTimer {
    fn drop(&mut self) {
        if let Some((cell, started)) = self.0.take() {
            let nanos = started.elapsed().as_nanos();
            cell.record(u64::try_from(nanos).unwrap_or(u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_threshold() {
        for v in 0..EXACT {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bounds_contain_their_values_and_tile_the_range() {
        // Every bucket's bounds round-trip through bucket_index, and
        // consecutive buckets tile u64 with no gap or overlap.
        let mut expected_lower = 0u64;
        for index in 0..BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            assert_eq!(lower, expected_lower, "gap before bucket {index}");
            assert!(lower <= upper);
            assert_eq!(bucket_index(lower), index);
            assert_eq!(bucket_index(upper), index);
            expected_lower = upper.wrapping_add(1);
        }
        assert_eq!(expected_lower, 0, "last bucket must end at u64::MAX");
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for index in EXACT as usize..BUCKETS {
            let (lower, upper) = bucket_bounds(index);
            let width = upper - lower + 1;
            assert!(
                width as f64 / lower as f64 <= 0.125 + 1e-9,
                "bucket {index} [{lower}, {upper}] wider than 12.5%"
            );
        }
    }

    #[test]
    fn noop_handles_ignore_everything() {
        let counter = Counter::noop();
        counter.inc();
        counter.add(100);
        assert!(!counter.is_live());
        let gauge = Gauge::noop();
        gauge.set(-5);
        gauge.add(3);
        assert!(!gauge.is_live());
        let histogram = Histogram::noop();
        histogram.record(42);
        drop(histogram.timer());
        assert!(!histogram.is_live());
    }
}
