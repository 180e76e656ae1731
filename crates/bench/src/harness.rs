//! Shared plumbing for the experiment harness: scenario caching, policy
//! runs, and summary extraction.

use foodmatch_core::{DispatchConfig, PolicyKind};
use foodmatch_roadnet::TimePoint;
use foodmatch_sim::SimulationReport;
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use std::collections::HashMap;

/// Global options shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Seed of the synthetic "day" (the paper cross-validates over 6 days;
    /// run the harness with several seeds to do the same).
    pub seed: u64,
    /// Quick mode shrinks horizons and restricts the city list so that the
    /// whole suite finishes in minutes rather than hours.
    pub quick: bool,
    /// Where machine-readable benchmark results should be written
    /// (`--bench-out`); experiments that produce none ignore it.
    pub bench_out: Option<std::path::PathBuf>,
    /// Where the telemetry snapshot should be written after the run
    /// (`--telemetry-out`); when set, `repro` installs a global recorder
    /// before the first experiment starts.
    pub telemetry_out: Option<std::path::PathBuf>,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext { seed: 1, quick: false, bench_out: None, telemetry_out: None }
    }
}

impl ExperimentContext {
    /// The cities used for the Swiggy-style comparisons.
    pub fn swiggy_cities(&self) -> Vec<CityId> {
        if self.quick {
            vec![CityId::B, CityId::A]
        } else {
            CityId::SWIGGY.to_vec()
        }
    }

    /// All four cities (only Fig. 6(b) uses GrubHub).
    pub fn all_cities(&self) -> Vec<CityId> {
        let mut cities = self.swiggy_cities();
        cities.push(CityId::GrubHub);
        cities
    }

    /// The horizon used for head-to-head policy comparisons: the full lunch
    /// period (11:00–15:00), or a shorter slice in quick mode.
    pub fn comparison_options(&self) -> ScenarioOptions {
        let mut options = ScenarioOptions::lunch_peak(self.seed);
        if self.quick {
            options.start = TimePoint::from_hms(12, 0, 0);
            options.end = TimePoint::from_hms(13, 30, 0);
        }
        options
    }

    /// The horizon used for per-timeslot figures (a full day, or a
    /// lunch+evening slice in quick mode).
    pub fn full_day_options(&self) -> ScenarioOptions {
        let mut options = ScenarioOptions::full_day(self.seed);
        if self.quick {
            options.start = TimePoint::from_hms(11, 0, 0);
            options.end = TimePoint::from_hms(21, 0, 0);
        }
        options
    }

    /// The horizon used for parameter sweeps (shorter, since each sweep point
    /// is a full simulation run).
    pub fn sweep_options(&self) -> ScenarioOptions {
        ScenarioOptions {
            seed: self.seed,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(if self.quick { 13 } else { 14 }, 0, 0),
            vehicle_fraction: 1.0,
        }
    }
}

/// The headline numbers extracted from one simulation run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// City the run was on.
    pub city: CityId,
    /// Policy name.
    pub policy: String,
    /// Extra delivery time, hours per day.
    pub xdt_hours_per_day: f64,
    /// Orders per kilometre.
    pub orders_per_km: f64,
    /// Waiting time, hours per day.
    pub waiting_hours_per_day: f64,
    /// Rejected orders, percent of offered orders.
    pub rejection_pct: f64,
    /// Percentage of overflown windows (all slots).
    pub overflow_pct: f64,
    /// Percentage of overflown windows (peak slots only).
    pub overflow_peak_pct: f64,
    /// Mean per-window policy computation time, seconds.
    pub mean_compute_secs: f64,
    /// The full report, for experiments that need per-slot detail.
    pub report: SimulationReport,
}

impl RunSummary {
    fn from_report(city: CityId, report: SimulationReport) -> Self {
        RunSummary {
            city,
            policy: report.policy.clone(),
            xdt_hours_per_day: report.xdt_hours_per_day(),
            orders_per_km: report.orders_per_km(),
            waiting_hours_per_day: report.waiting_hours_per_day(),
            rejection_pct: report.rejection_rate_pct(),
            overflow_pct: report.overflow_pct(false),
            overflow_peak_pct: report.overflow_pct(true),
            mean_compute_secs: report.mean_window_compute_secs(),
            report,
        }
    }
}

/// Runs `policy` on `city` with the scenario `options`, after applying
/// `configure` to the city's default dispatcher configuration.
pub fn run_city(
    city: CityId,
    options: ScenarioOptions,
    policy: PolicyKind,
    configure: impl FnOnce(DispatchConfig) -> DispatchConfig,
) -> RunSummary {
    let scenario = Scenario::generate(city, options);
    let config = configure(scenario.default_config());
    let simulation = scenario.into_simulation_with(config);
    let mut policy = policy.build();
    let report = simulation.run(policy.as_mut());
    RunSummary::from_report(city, report)
}

/// Runs several policies on the *same* scenario so that comparisons are
/// apples-to-apples, returning one summary per policy.
pub fn run_policies(
    city: CityId,
    options: ScenarioOptions,
    policies: &[PolicyKind],
    configure: impl Fn(DispatchConfig) -> DispatchConfig,
) -> HashMap<PolicyKind, RunSummary> {
    let scenario = Scenario::generate(city, options);
    let config = configure(scenario.default_config());
    let simulation = scenario.into_simulation_with(config);
    policies
        .iter()
        .map(|&kind| {
            let mut policy = kind.build();
            let report = simulation.run(policy.as_mut());
            (kind, RunSummary::from_report(city, report))
        })
        .collect()
}

/// Formats a floating point cell with a fixed width.
pub fn cell(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:>10.0}")
    } else if value.abs() >= 10.0 {
        format!("{value:>10.1}")
    } else {
        format!("{value:>10.3}")
    }
}

/// Prints a rule + header for an experiment section.
pub fn header(title: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
}

/// The improvement of `ours` over `baseline` in percent, following Eq. 9 of
/// the paper (positive = FoodMatch better). For metrics where larger values
/// are better (O/Km), pass `higher_is_better = true`.
pub fn improvement_pct(baseline: f64, ours: f64, higher_is_better: bool) -> f64 {
    if baseline.abs() < 1e-12 {
        return 0.0;
    }
    if higher_is_better {
        (ours - baseline) / baseline * 100.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_follows_equation_9() {
        assert!((improvement_pct(100.0, 70.0, false) - 30.0).abs() < 1e-9);
        assert!((improvement_pct(0.5, 0.6, true) - 20.0).abs() < 1e-6);
        assert_eq!(improvement_pct(0.0, 5.0, false), 0.0);
    }

    #[test]
    fn quick_context_shrinks_the_city_list() {
        let quick = ExperimentContext { quick: true, ..Default::default() };
        assert_eq!(quick.swiggy_cities().len(), 2);
        let full = ExperimentContext::default();
        assert_eq!(full.swiggy_cities().len(), 3);
        assert_eq!(full.all_cities().len(), 4);
    }

    #[test]
    fn cells_are_fixed_width() {
        assert_eq!(cell(1234.5).len(), 10);
        assert_eq!(cell(12.34).len(), 10);
        assert_eq!(cell(0.1234).len(), 10);
    }

    #[test]
    fn run_city_produces_a_consistent_summary() {
        let options = ScenarioOptions {
            seed: 3,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(12, 30, 0),
            vehicle_fraction: 1.0,
        };
        let summary = run_city(CityId::GrubHub, options, PolicyKind::FoodMatch, |c| c);
        assert_eq!(summary.city, CityId::GrubHub);
        assert_eq!(summary.policy, "FoodMatch");
        assert!(summary.xdt_hours_per_day >= 0.0);
        assert!(summary.report.total_orders > 0);
    }
}
