//! Point-in-time snapshots and their export formats.
//!
//! A [`TelemetrySnapshot`] is a consistent-enough copy of every registered
//! metric (each cell is read atomically; the set is read under the
//! registry lock). It exports as:
//!
//! * hand-rolled JSON ([`TelemetrySnapshot::to_json`]) — the
//!   `--telemetry-out` artifact, diffable across commits;
//! * Prometheus text exposition ([`TelemetrySnapshot::to_prometheus`]) —
//!   cumulative `_bucket{le=...}` series plus `_sum`/`_count`.
//!
//! [`HistogramSnapshot`] carries the analysis methods: nearest-rank
//! quantiles (with explicit bucket bounds for error bracketing) and an
//! associative, order-independent [`HistogramSnapshot::merge`] for
//! cross-shard aggregation.

use crate::metrics::{bucket_bounds, BUCKETS};

/// Immutable copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping beyond `u64`).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample, 0 when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty distribution — the identity for [`merge`](Self::merge).
    pub fn empty() -> Self {
        HistogramSnapshot { buckets: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Mean sample value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile estimate (`q` in `[0, 100]`): the upper bound
    /// of the bucket holding the rank-`ceil(q/100·n)` sample, matching the
    /// bench harness percentile convention. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, upper)| upper.min(self.max))
    }

    /// Inclusive `[lower, upper]` value range of the bucket holding the
    /// nearest-rank quantile; the exact sorted-sample percentile is
    /// guaranteed to lie inside it. `None` when empty.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for &(index, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return Some(bucket_bounds(index));
            }
        }
        // Unreachable when bucket counts sum to `count`; degrade to max.
        Some((self.max, self.max))
    }

    /// Combines two distributions. Associative and order-independent:
    /// merging per-shard snapshots in any grouping yields the same result.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut dense = [0u64; BUCKETS];
        for &(index, count) in self.buckets.iter().chain(&other.buckets) {
            dense[index] += count;
        }
        let buckets =
            dense.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect();
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

/// Point-in-time copy of every metric in a [`crate::Telemetry`] registry,
/// name-sorted.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Value of one counter, `None` when never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `counter_sum("engine.memo.hits")` totals the per-shard series.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(n, _)| n.starts_with(prefix)).map(|&(_, v)| v).sum()
    }

    /// One histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Merge of every histogram whose name starts with `prefix`.
    pub fn histogram_sum(&self, prefix: &str) -> HistogramSnapshot {
        self.histograms
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(HistogramSnapshot::empty(), |acc, (_, h)| acc.merge(h))
    }

    /// Hand-rolled JSON (the workspace has no serialization dependency).
    /// Stable, name-sorted layout; histogram buckets are `[lower, upper,
    /// count]` triples so the file is self-describing.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!("    \"{name}\": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                h.quantile(50.0).unwrap_or(0),
                h.quantile(90.0).unwrap_or(0),
                h.quantile(99.0).unwrap_or(0),
            ));
            for (j, &(index, count)) in h.buckets.iter().enumerate() {
                let (lower, upper) = bucket_bounds(index);
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{lower}, {upper}, {count}]"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Prometheus text exposition. Metric names are sanitised
    /// (`.`/`-` → `_`); histograms emit cumulative `_bucket{le=...}`
    /// series over non-empty buckets plus `+Inf`, `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for &(index, count) in &h.buckets {
                cumulative += count;
                let (_, upper) = bucket_bounds(index);
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

/// Maps a dotted metric name onto the Prometheus grammar.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bucket_index;

    fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
        let mut dense = [0u64; BUCKETS];
        for &s in samples {
            dense[bucket_index(s)] += 1;
        }
        HistogramSnapshot {
            buckets: dense
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i, c))
                .collect(),
            count: samples.len() as u64,
            sum: samples.iter().sum(),
            min: samples.iter().copied().min().unwrap_or(u64::MAX),
            max: samples.iter().copied().max().unwrap_or(0),
        }
    }

    #[test]
    fn quantile_bounds_bracket_exact_percentiles() {
        let samples: Vec<u64> = (1..=1000).map(|i| i * 37).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = snapshot_of(&samples);
        for q in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1];
            let (lower, upper) = snap.quantile_bounds(q).unwrap();
            assert!(
                lower <= exact && exact <= upper,
                "q{q}: exact {exact} outside [{lower}, {upper}]"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = snapshot_of(&[1, 5, 9000]);
        let b = snapshot_of(&[2, 2, 700]);
        let c = snapshot_of(&[1_000_000]);
        assert_eq!(a.merge(&b), b.merge(&a));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        assert_eq!(a.merge(&HistogramSnapshot::empty()), a);
    }

    #[test]
    fn prometheus_exposition_is_cumulative() {
        let snap = TelemetrySnapshot {
            counters: vec![("engine.queries".into(), 7)],
            gauges: vec![("service.pending".into(), -2)],
            histograms: vec![("wal.fsync_ns".into(), snapshot_of(&[3, 3, 90]))],
        };
        let text = snap.to_prometheus();
        assert!(text.contains("engine_queries 7"));
        assert!(text.contains("service_pending -2"));
        assert!(text.contains("wal_fsync_ns_bucket{le=\"3\"} 2"));
        assert!(text.contains("wal_fsync_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("wal_fsync_ns_count 3"));
    }

    #[test]
    fn json_is_balanced() {
        let snap = TelemetrySnapshot {
            counters: vec![("a".into(), 1)],
            gauges: vec![],
            histograms: vec![("h".into(), snapshot_of(&[1, 2, 3]))],
        };
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"p99\""));
    }
}
