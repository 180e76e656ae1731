//! Diurnal demand model.
//!
//! Fig. 6(a) of the paper plots the order-to-vehicle ratio per hourly
//! timeslot: demand is negligible overnight, climbs through the morning, and
//! peaks sharply at lunch (12:00–15:00) and dinner (19:00–22:00), with City
//! B showing the highest peaks. [`HOURLY_WEIGHTS`] encodes that shape as a
//! probability distribution over the 24 hour slots; the one arrival
//! function ([`GeneratedCity`](crate::GeneratedCity)`::arrivals`, behind both
//! the batch [`Scenario`](crate::Scenario) and the live
//! [`PoissonOrderSource`](crate::PoissonOrderSource)) multiplies it by a
//! daily order count and draws arrival times within each hour.
//!
//! The module also provides the small crate-private random-variate helpers
//! of the workload generator (a Box–Muller Gaussian, so we do not need an
//! extra distribution crate).

use rand::Rng;

/// Relative order volume per hour of day (sums to 1).
///
/// The shape follows Fig. 6(a): near-zero overnight, a small breakfast bump,
/// a lunch peak around 12:00–14:00 and the tallest dinner peak around
/// 19:00–21:00.
pub const HOURLY_WEIGHTS: [f64; 24] = [
    0.004, 0.002, 0.001, 0.001, 0.001, 0.002, 0.006, 0.014, 0.028, 0.040, 0.050, 0.072, 0.094,
    0.086, 0.058, 0.040, 0.038, 0.048, 0.070, 0.104, 0.096, 0.076, 0.046, 0.023,
];

/// A sample from the standard normal distribution (Box–Muller transform).
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// A sample from `N(mean, std_dev)` clamped to `[min, max]`.
pub(crate) fn clamped_normal(
    rng: &mut impl Rng,
    mean: f64,
    std_dev: f64,
    min: f64,
    max: f64,
) -> f64 {
    (mean + std_dev * standard_normal(rng)).clamp(min, max)
}

/// Samples the number of orders arriving in one hour as a Poisson variate
/// with the given mean (inversion by sequential search — means here are far
/// below the range where that becomes inaccurate or slow).
pub(crate) fn poisson(rng: &mut impl Rng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 60.0 {
        // Normal approximation for large means keeps this O(1).
        return clamped_normal(rng, mean, mean.sqrt(), 0.0, mean * 3.0).round() as usize;
    }
    let threshold = (-mean).exp();
    let mut count = 0usize;
    let mut product: f64 = rng.random_range(0.0..1.0);
    while product > threshold {
        count += 1;
        product *= rng.random_range(0.0_f64..1.0);
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_form_a_distribution() {
        let sum: f64 = HOURLY_WEIGHTS.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        assert!(HOURLY_WEIGHTS.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn peaks_are_at_lunch_and_dinner() {
        let (lunch, dinner) = (HOURLY_WEIGHTS[12], HOURLY_WEIGHTS[19]);
        let (night, morning) = (HOURLY_WEIGHTS[3], HOURLY_WEIGHTS[9]);
        assert!(lunch > morning);
        assert!(dinner > morning);
        assert!(dinner >= lunch);
        assert!(night < 0.01);
        // The dinner peak is the global maximum, as in Fig. 6(a).
        let max = HOURLY_WEIGHTS.iter().cloned().fold(0.0_f64, f64::max);
        assert_eq!(max, dinner);
    }

    #[test]
    fn standard_normal_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "variance {var}");
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = clamped_normal(&mut rng, 10.0, 5.0, 2.0, 25.0);
            assert!((2.0..=25.0).contains(&x));
        }
    }

    #[test]
    fn poisson_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 5_000;
        let mean_param = 7.5;
        let total: usize = (0..n).map(|_| poisson(&mut rng, mean_param)).sum();
        let empirical = total as f64 / n as f64;
        assert!((empirical - mean_param).abs() < 0.25, "empirical mean {empirical}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
        // Large-mean path stays close too.
        let total: usize = (0..2_000).map(|_| poisson(&mut rng, 120.0)).sum();
        let empirical = total as f64 / 2_000.0;
        assert!((empirical - 120.0).abs() < 3.0, "empirical mean {empirical}");
    }
}
