//! Property tests for the telemetry histogram: quantile bracketing and
//! merge algebra, on seeded random distributions.
//!
//! The log-bucketed histogram trades exactness for fixed memory; what it
//! *guarantees* is that every nearest-rank quantile it reports comes with
//! a bucket `[lower, upper]` window containing the exact sorted-sample
//! percentile (the buckets are at most 12.5% wide, so the window is
//! tight). And cross-shard aggregation leans on `merge` being a proper
//! commutative monoid — any grouping of per-shard snapshots must yield
//! the same city-wide distribution.

use foodmatch_telemetry::{bucket_bounds, bucket_index, HistogramSnapshot, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Records `samples` into a fresh registry histogram and snapshots it.
fn snapshot_of(samples: &[u64]) -> HistogramSnapshot {
    let telemetry = Telemetry::new();
    let histogram = telemetry.histogram("h");
    for &sample in samples {
        histogram.record(sample);
    }
    telemetry.snapshot().histogram("h").expect("registered").clone()
}

/// A batch of samples from one of several shapes: uniform-in-octave
/// (log-uniform-ish), heavy-tailed, tightly clustered, and tiny exact
/// values — the regimes dispatch latencies actually produce.
fn random_samples(rng: &mut StdRng, shape: usize, len: usize) -> Vec<u64> {
    (0..len)
        .map(|_| match shape % 4 {
            0 => {
                let octave = rng.random_range(0u32..40);
                let base = 1u64 << octave;
                rng.random_range(base..=base.saturating_mul(2).max(base))
            }
            1 => {
                // Heavy tail: mostly small, occasionally enormous.
                if rng.random_bool(0.05) {
                    rng.random_range(1_000_000_000u64..=u64::MAX / 2)
                } else {
                    rng.random_range(0u64..50_000)
                }
            }
            2 => rng.random_range(9_900u64..10_100),
            _ => rng.random_range(0u64..16),
        })
        .collect()
}

#[test]
fn quantile_bounds_bracket_exact_percentiles_across_distributions() {
    let mut rng = StdRng::seed_from_u64(0x7e1e);
    for case in 0..32 {
        let len = rng.random_range(1usize..=600);
        let samples = random_samples(&mut rng, case, len);
        let snap = snapshot_of(&samples);
        assert_eq!(snap.count, samples.len() as u64);

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            // Nearest-rank: rank = ceil(q/100 * n), 1-based, clamped.
            let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
            let exact = sorted[rank.min(sorted.len()) - 1];
            let (lower, upper) = snap.quantile_bounds(q).expect("non-empty histogram");
            assert!(
                lower <= exact && exact <= upper,
                "case {case} q{q}: exact {exact} outside bucket [{lower}, {upper}]"
            );
            // The window must be the bucket the exact value falls in.
            let (expected_lower, expected_upper) = bucket_bounds(bucket_index(exact));
            assert_eq!((lower, upper), (expected_lower, expected_upper));
            // The point estimate lies inside the reported window (clamped
            // to the observed max).
            let point = snap.quantile(q).expect("non-empty histogram");
            assert!(lower.min(snap.max) <= point && point <= upper);
        }
    }
}

#[test]
fn merge_is_associative_and_order_independent_over_random_shards() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..16 {
        // One "city day" of samples, split across a random number of
        // shards with random boundaries.
        let total = rng.random_range(10usize..400);
        let samples = random_samples(&mut rng, case, total);
        let shards = rng.random_range(2usize..=6);
        let mut parts: Vec<Vec<u64>> = vec![Vec::new(); shards];
        for &sample in &samples {
            parts[rng.random_range(0usize..shards)].push(sample);
        }
        let snaps: Vec<HistogramSnapshot> = parts.iter().map(|p| snapshot_of(p)).collect();

        // Left fold, right fold, and a shuffled fold must all equal the
        // unsharded distribution.
        let whole = snapshot_of(&samples);
        let left = snaps.iter().fold(HistogramSnapshot::empty(), |acc, s| acc.merge(s));
        let right = snaps.iter().rev().fold(HistogramSnapshot::empty(), |acc, s| s.merge(&acc));
        let mut indices: Vec<usize> = (0..shards).collect();
        // Fisher-Yates with the seeded rng keeps the test deterministic.
        for i in (1..indices.len()).rev() {
            indices.swap(i, rng.random_range(0usize..=i));
        }
        let shuffled =
            indices.iter().fold(HistogramSnapshot::empty(), |acc, &i| acc.merge(&snaps[i]));

        assert_eq!(left, whole, "case {case}: left fold differs from the unsharded histogram");
        assert_eq!(right, whole, "case {case}: right fold differs");
        assert_eq!(shuffled, whole, "case {case}: shuffled fold differs");

        // Pairwise associativity on the first three shards.
        if shards >= 3 {
            let ab_c = snaps[0].merge(&snaps[1]).merge(&snaps[2]);
            let a_bc = snaps[0].merge(&snaps[1].merge(&snaps[2]));
            assert_eq!(ab_c, a_bc, "case {case}: merge is not associative");
        }
        // The empty histogram is the identity.
        assert_eq!(whole.merge(&HistogramSnapshot::empty()), whole);
    }
}
