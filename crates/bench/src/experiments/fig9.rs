//! Figure 9: impact of the angular-distance weight γ (a–c) and the rejection
//! rate versus fleet size for three γ values on City B (d).

use crate::harness::{sweep, ExperimentContext};
use crate::ledger::Row;
use foodmatch_core::DispatchConfig;
use foodmatch_workload::CityId;

/// Both halves of Figure 9. (a–c): XDT, O/Km and WT as γ sweeps from
/// angular-dominated (0.1) to travel-time-dominated (0.9). (d): rejection
/// rate versus fleet size for γ ∈ {0.1, 0.5, 0.9} on City B.
pub fn run(ctx: &ExperimentContext) -> Vec<Row> {
    let gammas: &[f64] = if ctx.quick { &[0.1, 0.5, 0.9] } else { &[0.1, 0.25, 0.5, 0.75, 0.9] };
    let mut rows = sweep(
        &ctx.swiggy_cities(),
        gammas,
        |gamma| (format!("gamma={gamma}"), ctx.sweep_options()),
        |gamma, c| DispatchConfig { gamma, ..c },
        false,
    );
    let fractions: &[f64] = if ctx.quick { &[0.1, 0.3] } else { &[0.1, 0.2, 0.3] };
    let points: Vec<(f64, f64)> =
        fractions.iter().flat_map(|&f| [0.1, 0.5, 0.9].map(|gamma| (f, gamma))).collect();
    rows.extend(sweep(
        &[CityId::B],
        &points,
        |(f, gamma)| {
            (format!("fleet={f} gamma={gamma}"), ctx.sweep_options().with_vehicle_fraction(f))
        },
        |(_, gamma), c| DispatchConfig { gamma, ..c },
        false,
    ));
    rows
}
