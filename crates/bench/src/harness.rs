//! Shared plumbing for the experiment harness: scenario options, policy
//! runs, parameter sweeps and the standard rows of a run.

use crate::ledger::Row;
use foodmatch_core::{DispatchConfig, PolicyKind};
use foodmatch_roadnet::TimePoint;
use foodmatch_sim::SimulationReport;
use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
use std::collections::HashMap;

/// Global options shared by all experiments.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Seed of the synthetic "day" (the paper cross-validates over 6 days;
    /// `repro --seed 1,2,3` runs every experiment once per seed).
    pub seed: u64,
    /// Quick mode shrinks horizons and restricts the city list so that the
    /// whole suite finishes in minutes rather than hours.
    pub quick: bool,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        ExperimentContext { seed: 1, quick: false }
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

/// Runs `policy` on `city` with the scenario `options`, after applying
/// `configure` to the city's default dispatcher configuration.
pub fn run_city(
    city: CityId,
    options: ScenarioOptions,
    policy: PolicyKind,
    configure: impl FnOnce(DispatchConfig) -> DispatchConfig,
) -> SimulationReport {
    let scenario = Scenario::generate(city, options);
    let config = configure(scenario.default_config());
    let simulation = scenario.into_simulation_with(config);
    let mut policy = policy.build();
    simulation.run(policy.as_mut())
}

/// Runs several policies on the *same* scenario so that comparisons are
/// apples-to-apples, returning one report per policy.
pub fn run_policies(
    city: CityId,
    options: ScenarioOptions,
    policies: &[PolicyKind],
) -> HashMap<PolicyKind, SimulationReport> {
    let scenario = Scenario::generate(city, options);
    let simulation = scenario.into_simulation();
    policies
        .iter()
        .map(|&kind| {
            let mut policy = kind.build();
            (kind, simulation.run(policy.as_mut()))
        })
        .collect()
}

/// The standard rows of one run: XDT, orders per km, waiting time and
/// rejection rate.
pub fn report_rows(city: CityId, series: &str, report: &SimulationReport) -> Vec<Row> {
    vec![
        Row::new(city, series, "xdt_hours_per_day", "h/day", report.xdt_hours_per_day()),
        Row::new(city, series, "orders_per_km", "orders/km", report.orders_per_km()),
        Row::new(city, series, "waiting_hours_per_day", "h/day", report.waiting_hours_per_day()),
        Row::new(city, series, "rejection_pct", "%", report.rejection_rate_pct()),
    ]
}

/// A FoodMatch parameter sweep: one run per city and point, on the scenario
/// `point` names, after `configure`. Each run gives its standard rows under
/// the point's series label, plus the total policy compute time (a wall
/// time) when `timed`.
pub fn sweep<P: Copy>(
    cities: &[CityId],
    points: &[P],
    point: impl Fn(P) -> (String, ScenarioOptions),
    configure: impl Fn(P, DispatchConfig) -> DispatchConfig,
    timed: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &city in cities {
        for &p in points {
            let (series, options) = point(p);
            let report = run_city(city, options, PolicyKind::FoodMatch, |c| configure(p, c));
            rows.extend(report_rows(city, &series, &report));
            if timed {
                rows.push(Row::new(
                    city,
                    series,
                    "total_compute_s",
                    "s",
                    report.total_compute_secs(),
                ));
            }
        }
    }
    rows
}

/// The improvement of `ours` over `baseline` in percent, following Eq. 9 of
/// the paper (positive = FoodMatch better). For metrics where larger values
/// are better (O/Km), pass `higher_is_better = true`. `None` when the
/// baseline is 0: there is no improvement over nothing.
pub fn improvement_pct(baseline: f64, ours: f64, higher_is_better: bool) -> Option<f64> {
    if baseline.abs() < 1e-12 {
        return None;
    }
    Some(if higher_is_better {
        (ours - baseline) / baseline * 100.0
    } else {
        (baseline - ours) / baseline * 100.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_follows_equation_9() {
        assert!((improvement_pct(100.0, 70.0, false).unwrap() - 30.0).abs() < 1e-9);
        assert!((improvement_pct(0.5, 0.6, true).unwrap() - 20.0).abs() < 1e-6);
        assert_eq!(improvement_pct(0.0, 5.0, false), None);
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
    fn run_city_produces_a_consistent_summary() {
        let options = ScenarioOptions {
            seed: 3,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(12, 30, 0),
            vehicle_fraction: 1.0,
        };
        let report = run_city(CityId::GrubHub, options, PolicyKind::FoodMatch, |c| c);
        assert_eq!(report.policy, "FoodMatch");
        assert!(report.xdt_hours_per_day() >= 0.0);
        assert!(report.total_orders > 0);
        let rows = report_rows(CityId::GrubHub, "FoodMatch", &report);
        assert!(rows.iter().all(|r| r.city == "GrubHub" && r.value.is_finite()));
    }
}
