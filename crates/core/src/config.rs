//! Dispatch configuration: the paper's operational constraints and algorithm
//! parameters in one place.
//!
//! Defaults follow §V-B "Operational Constraints" and "Parameters":
//! `MAXO = 3`, `MAXI = 10`, `Ω = 7200 s`, 30-minute rejection deadline,
//! 45-minute maximum first mile, `Δ = 3 min`, `η = 60 s`, `γ = 0.5`,
//! `k = 200 × |O(ℓ)|/|V(ℓ)|`.

use foodmatch_matching::Decomposed;
use foodmatch_roadnet::Duration;
use std::fmt;
use std::sync::OnceLock;

/// Why a [`DispatchConfig`] was rejected by [`DispatchConfig::validate`].
/// Each variant carries the offending value so callers can surface a
/// precise diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `max_orders_per_vehicle` was zero — a vehicle must be able to carry
    /// at least one order.
    ZeroMaxOrders,
    /// `max_orders_per_vehicle` exceeded the exhaustive-routing limit of 5.
    MaxOrdersIntractable(usize),
    /// `max_items_per_vehicle` was zero.
    ZeroMaxItems,
    /// `rejection_penalty_secs` was not positive and finite.
    InvalidRejectionPenalty(f64),
    /// `gamma` fell outside `[0, 1]`.
    GammaOutOfRange(f64),
    /// `k_factor` was not positive and finite.
    InvalidKFactor(f64),
    /// `accumulation_window` was zero or negative — the dispatch loop
    /// cannot advance without a positive Δ.
    ZeroAccumulationWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxOrders => write!(f, "max_orders_per_vehicle must be at least 1"),
            ConfigError::MaxOrdersIntractable(n) => write!(
                f,
                "max_orders_per_vehicle = {n} makes exhaustive route planning intractable (limit 5)"
            ),
            ConfigError::ZeroMaxItems => write!(f, "max_items_per_vehicle must be at least 1"),
            ConfigError::InvalidRejectionPenalty(v) => {
                write!(f, "rejection_penalty_secs must be positive and finite, got {v}")
            }
            ConfigError::GammaOutOfRange(v) => write!(f, "gamma must be in [0, 1], got {v}"),
            ConfigError::InvalidKFactor(v) => {
                write!(f, "k_factor must be positive and finite, got {v}")
            }
            ConfigError::ZeroAccumulationWindow => {
                write!(f, "accumulation_window must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Tunable parameters and operational constraints of the dispatcher.
#[derive(Clone, Debug, PartialEq)]
pub struct DispatchConfig {
    /// `MAXO`: maximum number of orders that may be assigned to one vehicle.
    pub max_orders_per_vehicle: usize,
    /// `MAXI`: maximum number of items a vehicle can carry.
    pub max_items_per_vehicle: u32,
    /// `Ω`: rejection penalty in seconds (also the edge weight of infeasible
    /// FoodGraph edges).
    pub rejection_penalty_secs: f64,
    /// `Δ`: length of the accumulation window.
    pub accumulation_window: Duration,
    /// `η`: batching stops once the average batch cost exceeds this value.
    pub batching_threshold: Duration,
    /// `γ`: weight between angular distance and normalised travel time in the
    /// vehicle-sensitive edge weight (Eq. 8). `1.0` ignores angular distance.
    pub gamma: f64,
    /// Factor for the per-vehicle degree cap in the sparsified FoodGraph:
    /// `k = k_factor × |O(ℓ)| / |V(ℓ)|` (the paper uses 200).
    pub k_factor: f64,
    /// Orders unassigned for longer than this are rejected (30 min at Swiggy).
    pub rejection_deadline: Duration,
    /// Maximum allowed first-mile travel time (the 45-minute delivery
    /// guarantee bounds the vehicle-to-restaurant distance); pairs further
    /// apart than this get an Ω edge.
    pub max_first_mile: Duration,
    /// Enable the batching stage (Alg. 1). Off, every order is a batch of
    /// its own — the bottom rung of the ablation (vanilla KM, see
    /// [`DispatchConfig::as_vanilla_km`]).
    pub use_batching: bool,
    /// Enable reshuffling of assigned-but-not-picked-up orders (§IV-D2).
    pub use_reshuffle: bool,
    /// Enable the best-first sparsification of the FoodGraph (Alg. 2).
    pub use_bfs_sparsification: bool,
    /// Enable the angular-distance component of the edge weight (Eq. 8).
    pub use_angular_distance: bool,
    /// Dispatch width: the threads, the calling one included, that run
    /// per-window work — the router's zone fan-out, the batching stage's
    /// sweeps, the FoodGraph's collect, resolve and price phases, and
    /// per-component assignment solving. The width bounds nested fan-outs
    /// too: a stage fanned out inside a zone shares its zone's part of the
    /// width instead of adding threads (`parallel_map`'s budget). `0` means
    /// "use the machine's available parallelism"; `1` reproduces the serial
    /// dispatch path bit-for-bit. Results are identical for every value —
    /// the fan-out is deterministic — so this knob only trades wall-clock
    /// for cores.
    pub num_threads: usize,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            max_orders_per_vehicle: 3,
            max_items_per_vehicle: 10,
            rejection_penalty_secs: 7_200.0,
            accumulation_window: Duration::from_mins(3.0),
            batching_threshold: Duration::from_secs_f64(60.0),
            gamma: 0.5,
            k_factor: 200.0,
            rejection_deadline: Duration::from_mins(30.0),
            max_first_mile: Duration::from_mins(45.0),
            use_batching: true,
            use_reshuffle: true,
            use_bfs_sparsification: true,
            use_angular_distance: true,
            num_threads: 0,
        }
    }
}

impl DispatchConfig {
    /// Validates the configuration, returning the first problem found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_orders_per_vehicle == 0 {
            return Err(ConfigError::ZeroMaxOrders);
        }
        if self.max_orders_per_vehicle > 5 {
            return Err(ConfigError::MaxOrdersIntractable(self.max_orders_per_vehicle));
        }
        if self.max_items_per_vehicle == 0 {
            return Err(ConfigError::ZeroMaxItems);
        }
        if !self.rejection_penalty_secs.is_finite() || self.rejection_penalty_secs <= 0.0 {
            return Err(ConfigError::InvalidRejectionPenalty(self.rejection_penalty_secs));
        }
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(ConfigError::GammaOutOfRange(self.gamma));
        }
        if !self.k_factor.is_finite() || self.k_factor <= 0.0 {
            return Err(ConfigError::InvalidKFactor(self.k_factor));
        }
        if self.accumulation_window <= Duration::ZERO {
            return Err(ConfigError::ZeroAccumulationWindow);
        }
        Ok(())
    }

    /// The per-vehicle degree cap `k` for a window with `orders` unassigned
    /// batches/orders and `vehicles` available vehicles (§IV-C1: the paper
    /// sets `k = 200 × |O(ℓ)|/|V(ℓ)|`). Always at least 1; unbounded when BFS
    /// sparsification is disabled.
    pub fn degree_cap(&self, orders: usize, vehicles: usize) -> usize {
        if !self.use_bfs_sparsification {
            return usize::MAX;
        }
        if vehicles == 0 {
            return 1;
        }
        let k = (self.k_factor * orders as f64 / vehicles as f64).ceil() as usize;
        k.max(1)
    }

    /// The number of dispatch worker threads this configuration resolves to:
    /// `num_threads` capped at the machine's available parallelism (dispatch
    /// work is CPU-bound, so oversubscribing cores only adds scheduler
    /// overhead), or the full available parallelism when the knob is `0`.
    /// The machine's parallelism is read once per process: asking the
    /// operating system costs tens of microseconds (cgroup files), and the
    /// dispatch stages ask several times a window.
    pub fn effective_threads(&self) -> usize {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores = *CORES
            .get_or_init(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        match self.num_threads {
            0 => cores,
            n => n.min(cores),
        }
    }

    /// Instantiates the assignment solver of the matching stage (§IV-A):
    /// the FoodGraph sharded by connected component, each component's edge
    /// list solved by sparse Kuhn–Munkres, components fanned out over the
    /// dispatch width (the result is identical for every width). The solver times its own
    /// solves while a telemetry recorder is installed.
    pub fn build_solver(&self) -> Decomposed {
        Decomposed::new(self.effective_threads())
    }

    /// Returns a copy configured as the plain Kuhn–Munkres baseline (§IV-A):
    /// no batching, no reshuffling, full FoodGraph, no angular distance.
    /// `KuhnMunkresPolicy` is the FOODMATCH stages run under it; Fig. 7(a)
    /// adds the three contributions back one rung at a time.
    pub fn as_vanilla_km(&self) -> Self {
        DispatchConfig {
            use_batching: false,
            use_reshuffle: false,
            use_bfs_sparsification: false,
            use_angular_distance: false,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = DispatchConfig::default();
        assert_eq!(c.max_orders_per_vehicle, 3);
        assert_eq!(c.max_items_per_vehicle, 10);
        assert_eq!(c.rejection_penalty_secs, 7_200.0);
        assert_eq!(c.batching_threshold.as_secs_f64(), 60.0);
        assert_eq!(c.gamma, 0.5);
        assert_eq!(c.k_factor, 200.0);
        assert_eq!(c.rejection_deadline.as_mins_f64(), 30.0);
        assert_eq!(c.max_first_mile.as_mins_f64(), 45.0);
        assert_eq!(c.num_threads, 0, "default dispatch fan-out is auto");
        // The `solver` span label and the `matching.solve_ns.*` histogram.
        assert_eq!(Decomposed::NAME, "decomposed-sparse-km", "sharded sparse KM");
        assert!(c.effective_threads() >= 1);
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        assert_eq!(
            DispatchConfig { num_threads: 3, ..Default::default() }.effective_threads(),
            3.min(cores),
            "explicit requests are capped at the hardware parallelism"
        );
        assert!(c.validate().is_ok());
    }

    #[test]
    fn degree_cap_scales_with_order_to_vehicle_ratio() {
        let c = DispatchConfig::default();
        // 10 orders, 200 vehicles → k = ceil(200 * 10 / 200) = 10.
        assert_eq!(c.degree_cap(10, 200), 10);
        // 50 orders, 100 vehicles → 100.
        assert_eq!(c.degree_cap(50, 100), 100);
        // Never below one.
        assert_eq!(c.degree_cap(0, 100), 1);
        assert_eq!(c.degree_cap(3, 0), 1);
    }

    #[test]
    fn degree_cap_unbounded_without_sparsification() {
        let c = DispatchConfig { use_bfs_sparsification: false, ..Default::default() };
        assert_eq!(c.degree_cap(10, 10), usize::MAX);
    }

    #[test]
    fn vanilla_km_disables_all_optimisations() {
        let km = DispatchConfig::default().as_vanilla_km();
        assert!(!km.use_batching);
        assert!(!km.use_reshuffle);
        assert!(!km.use_bfs_sparsification);
        assert!(!km.use_angular_distance);
        // Operational constraints are preserved.
        assert_eq!(km.max_orders_per_vehicle, 3);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = DispatchConfig { gamma: 1.5, ..Default::default() };
        assert_eq!(c.validate(), Err(ConfigError::GammaOutOfRange(1.5)));
        c.gamma = 0.5;
        c.max_orders_per_vehicle = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxOrders));
        c.max_orders_per_vehicle = 9;
        assert_eq!(c.validate(), Err(ConfigError::MaxOrdersIntractable(9)));
        c.max_orders_per_vehicle = 3;
        c.rejection_penalty_secs = f64::NAN;
        assert!(matches!(c.validate(), Err(ConfigError::InvalidRejectionPenalty(_))));
        c.rejection_penalty_secs = 7_200.0;
        c.accumulation_window = Duration::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::ZeroAccumulationWindow));
        c.accumulation_window = Duration::from_mins(2.0);
        c.gamma = -0.1;
        assert_eq!(c.validate(), Err(ConfigError::GammaOutOfRange(-0.1)));
        // Errors render a human-readable diagnostic.
        assert!(c.validate().unwrap_err().to_string().contains("gamma"));
        c.gamma = 0.7;
        c.k_factor = -3.0;
        assert_eq!(c.validate(), Err(ConfigError::InvalidKFactor(-3.0)));
        c.k_factor = 50.0;
        assert!(c.validate().is_ok(), "every field back in range");
    }
}
