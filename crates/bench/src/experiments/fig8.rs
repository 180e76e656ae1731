//! Figure 8: parameter sweeps over the batching threshold η (a–c), the
//! accumulation window Δ (d–g) and the vehicle degree cap k (h–k). Each
//! point also reports its total policy compute time, a wall time.

use crate::harness::{sweep, ExperimentContext};
use crate::ledger::Row;
use foodmatch_core::DispatchConfig;
use foodmatch_roadnet::Duration;

/// Fig. 8(a–c): XDT, O/Km and WT as the batching quality threshold η (s) grows.
pub fn fig8_eta(ctx: &ExperimentContext) -> Vec<Row> {
    let etas: &[f64] =
        if ctx.quick { &[30.0, 60.0, 120.0] } else { &[30.0, 60.0, 90.0, 120.0, 150.0] };
    sweep(
        &ctx.swiggy_cities(),
        etas,
        |eta| (format!("eta={eta}"), ctx.sweep_options()),
        |eta, c| DispatchConfig { batching_threshold: Duration::from_secs_f64(eta), ..c },
        true,
    )
}

/// Fig. 8(d–g): XDT, O/Km, WT and running time as the accumulation window Δ
/// grows from 1 to 4 minutes.
pub fn fig8_delta(ctx: &ExperimentContext) -> Vec<Row> {
    let deltas: &[f64] = if ctx.quick { &[1.0, 3.0] } else { &[1.0, 2.0, 3.0, 4.0] };
    sweep(
        &ctx.swiggy_cities(),
        deltas,
        |minutes| (format!("delta={minutes}"), ctx.sweep_options()),
        |minutes, c| DispatchConfig { accumulation_window: Duration::from_mins(minutes), ..c },
        true,
    )
}

/// Fig. 8(h–k): XDT, O/Km, WT and running time as the per-vehicle degree cap
/// factor k grows.
pub fn fig8_k(ctx: &ExperimentContext) -> Vec<Row> {
    let ks: &[f64] = if ctx.quick { &[50.0, 200.0] } else { &[50.0, 100.0, 200.0, 300.0] };
    sweep(
        &ctx.swiggy_cities(),
        ks,
        |k| (format!("k={k}"), ctx.sweep_options()),
        |k, c| DispatchConfig { k_factor: k, ..c },
        true,
    )
}
