//! Metric collection and the simulation report.
//!
//! The report exposes exactly the quantities §V of the paper evaluates:
//!
//! * **XDT** — extra delivery time (the objective of Problem 1), reported in
//!   hours per simulated day and per hourly timeslot.
//! * **O/Km** — orders carried per kilometre driven, the operational
//!   efficiency metric of §V-B (`Σ k·D_k / Σ D_k` over distances `D_k`
//!   driven while carrying `k` picked-up orders).
//! * **WT** — vehicle waiting time at restaurants.
//! * **Rejections** — orders that stayed unassigned beyond the deadline.
//! * **Overflown windows** — accumulation windows whose assignment
//!   computation took longer than Δ (the scalability metric of Fig. 6(f–h)).
//!
//! On top of the paper's metrics, the report attributes outcomes to
//! *disruption windows* (periods with an active traffic perturbation from
//! the dynamic-events subsystem): deliveries and rejections carry a
//! during-disruption flag, windows record whether traffic was perturbed, and
//! customer **cancellations** are accounted separately from rejections.

use foodmatch_core::codec::{ByteReader, Codec, DecodeError};
use foodmatch_core::OrderId;
use foodmatch_roadnet::{Duration, HourSlot, TimePoint};

/// Maximum on-board load tracked separately by the O/Km histogram.
pub const MAX_TRACKED_LOAD: usize = 8;

/// One delivered order and its timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeliveredOrder {
    /// The order.
    pub id: OrderId,
    /// When the customer placed it.
    pub placed_at: TimePoint,
    /// When it reached the customer.
    pub delivered_at: TimePoint,
    /// Its extra delivery time (Definition 7), clamped at zero.
    pub xdt: Duration,
    /// The hour slot in which the order was placed (used for per-slot plots).
    pub slot: HourSlot,
    /// True when the delivery completed while a traffic disruption was
    /// active, so XDT can be attributed to disruption windows.
    pub during_disruption: bool,
}

/// Statistics of one accumulation window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStats {
    /// When the window closed (assignment time).
    pub closed_at: TimePoint,
    /// The hour slot of the window.
    pub slot: HourSlot,
    /// Orders presented to the policy.
    pub orders: usize,
    /// Vehicles presented to the policy.
    pub vehicles: usize,
    /// Orders the policy assigned.
    pub assigned: usize,
    /// Wall-clock time the policy needed, in seconds.
    pub compute_secs: f64,
    /// Whether the computation exceeded the window length Δ.
    pub overflown: bool,
    /// Whether a traffic disruption was active when the window closed.
    pub disrupted: bool,
}

/// The complete outcome of one simulation run.
///
/// `PartialEq` compares every recorded quantity bit for bit; the golden
/// batch-vs-incremental equivalence test relies on it (wall-clock fields
/// inside [`WindowStats`] are normalised there before comparing).
#[derive(Clone, Debug, PartialEq)]
pub struct SimulationReport {
    /// Name of the policy that produced this run.
    pub policy: String,
    /// Total number of orders offered by the workload.
    pub total_orders: usize,
    /// Every delivered order with its timing.
    pub delivered: Vec<DeliveredOrder>,
    /// Orders rejected because they stayed unassigned past the deadline.
    pub rejected: Vec<OrderId>,
    /// How many of the rejections happened while a traffic disruption was
    /// active.
    pub rejected_during_disruption: usize,
    /// Orders cancelled by the customer before pickup (dynamic-events
    /// subsystem). Cancelled orders are neither delivered nor rejected.
    pub cancelled: Vec<OrderId>,
    /// Orders assigned but still undelivered when the simulation was cut off
    /// (normally empty; non-empty indicates the drain horizon was too short).
    pub undelivered: Vec<OrderId>,
    /// Per-window statistics, in chronological order.
    pub windows: Vec<WindowStats>,
    /// `distance_by_load_m[slot][k]`: meters driven during `slot` while
    /// carrying `k` picked-up orders.
    pub distance_by_load_m: Vec<[f64; MAX_TRACKED_LOAD + 1]>,
    /// `waiting_by_slot[slot]`: restaurant waiting time accumulated in the slot.
    pub waiting_by_slot: Vec<Duration>,
    /// The simulated horizon length (used to normalise to per-day figures).
    pub horizon: Duration,
}

impl SimulationReport {
    /// Total extra delivery time, in hours.
    pub fn total_xdt_hours(&self) -> f64 {
        self.delivered.iter().map(|d| d.xdt.as_hours_f64()).sum()
    }

    /// Total extra delivery time scaled to a 24-hour day, in hours/day.
    pub fn xdt_hours_per_day(&self) -> f64 {
        self.total_xdt_hours() / self.horizon_days()
    }

    /// The objective of Problem 1: total XDT plus Ω per rejection, in seconds.
    pub fn objective_secs(&self, omega_secs: f64) -> f64 {
        self.delivered.iter().map(|d| d.xdt.as_secs_f64()).sum::<f64>()
            + omega_secs * self.rejected.len() as f64
    }

    /// Average number of orders per kilometre driven.
    pub fn orders_per_km(&self) -> f64 {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for per_slot in &self.distance_by_load_m {
            for (load, meters) in per_slot.iter().enumerate() {
                weighted += load as f64 * meters;
                total += meters;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }

    /// Total kilometres driven by the fleet.
    pub fn total_km(&self) -> f64 {
        self.distance_by_load_m.iter().flatten().sum::<f64>() / 1000.0
    }

    /// Total waiting time at restaurants, in hours.
    pub fn waiting_hours(&self) -> f64 {
        self.waiting_by_slot.iter().map(|d| d.as_hours_f64()).sum()
    }

    /// Waiting time scaled to a 24-hour day, in hours/day.
    pub fn waiting_hours_per_day(&self) -> f64 {
        self.waiting_hours() / self.horizon_days()
    }

    /// Fraction of offered orders that were rejected, in percent.
    pub fn rejection_rate_pct(&self) -> f64 {
        if self.total_orders == 0 {
            0.0
        } else {
            100.0 * self.rejected.len() as f64 / self.total_orders as f64
        }
    }

    /// Fraction of delivered orders among offered orders, in percent.
    pub fn delivery_rate_pct(&self) -> f64 {
        if self.total_orders == 0 {
            0.0
        } else {
            100.0 * self.delivered.len() as f64 / self.total_orders as f64
        }
    }

    /// Fraction of offered orders cancelled by the customer, in percent.
    pub fn cancellation_rate_pct(&self) -> f64 {
        if self.total_orders == 0 {
            0.0
        } else {
            100.0 * self.cancelled.len() as f64 / self.total_orders as f64
        }
    }

    /// XDT accumulated by deliveries that completed during disruption
    /// windows, in hours (the rest is [`Self::total_xdt_hours`] minus this).
    pub fn xdt_hours_disrupted(&self) -> f64 {
        self.delivered.iter().filter(|d| d.during_disruption).map(|d| d.xdt.as_hours_f64()).sum()
    }

    /// Number of deliveries completed during disruption windows.
    pub fn delivered_during_disruption(&self) -> usize {
        self.delivered.iter().filter(|d| d.during_disruption).count()
    }

    /// Percentage of accumulation windows closed while a traffic disruption
    /// was active.
    pub fn disrupted_window_pct(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            100.0 * self.windows.iter().filter(|w| w.disrupted).count() as f64
                / self.windows.len() as f64
        }
    }

    /// Percentage of windows whose assignment took longer than Δ.
    ///
    /// With `peak_only` set, only windows in the lunch/dinner peak slots are
    /// considered (Fig. 6(g)).
    pub fn overflow_pct(&self, peak_only: bool) -> f64 {
        let relevant: Vec<&WindowStats> =
            self.windows.iter().filter(|w| !peak_only || w.slot.is_peak()).collect();
        if relevant.is_empty() {
            0.0
        } else {
            100.0 * relevant.iter().filter(|w| w.overflown).count() as f64 / relevant.len() as f64
        }
    }

    /// Mean wall-clock time per window spent inside the policy, in seconds.
    pub fn mean_window_compute_secs(&self) -> f64 {
        if self.windows.is_empty() {
            0.0
        } else {
            self.windows.iter().map(|w| w.compute_secs).sum::<f64>() / self.windows.len() as f64
        }
    }

    /// Total wall-clock time spent inside the policy, in seconds.
    pub fn total_compute_secs(&self) -> f64 {
        self.windows.iter().map(|w| w.compute_secs).sum()
    }

    /// XDT accumulated per hour slot, in hours.
    pub fn xdt_hours_by_slot(&self) -> [f64; HourSlot::COUNT] {
        let mut out = [0.0; HourSlot::COUNT];
        for d in &self.delivered {
            out[d.slot.index()] += d.xdt.as_hours_f64();
        }
        out
    }

    /// Orders per km, split by the hour slot in which the driving happened.
    pub fn orders_per_km_by_slot(&self) -> [f64; HourSlot::COUNT] {
        let mut out = [0.0; HourSlot::COUNT];
        for (slot, per_slot) in self.distance_by_load_m.iter().enumerate() {
            let mut weighted = 0.0;
            let mut total = 0.0;
            for (load, meters) in per_slot.iter().enumerate() {
                weighted += load as f64 * meters;
                total += meters;
            }
            out[slot] = if total == 0.0 { 0.0 } else { weighted / total };
        }
        out
    }

    /// Waiting time per hour slot, in hours.
    pub fn waiting_hours_by_slot(&self) -> [f64; HourSlot::COUNT] {
        let mut out = [0.0; HourSlot::COUNT];
        for (slot, d) in self.waiting_by_slot.iter().enumerate() {
            out[slot] = d.as_hours_f64();
        }
        out
    }

    fn horizon_days(&self) -> f64 {
        (self.horizon.as_hours_f64() / 24.0).max(1e-9)
    }
}

/// Incrementally accumulates metrics while a simulation runs: the
/// [`SimulationReport`] under construction, plus the one flag that stamps
/// what is recorded next.
///
/// A live [`DispatchService`](crate::service) hands out a point-in-time
/// clone of the report mid-run without disturbing the accumulation.
#[derive(Clone, Debug)]
pub struct MetricsCollector {
    report: SimulationReport,
    /// Whether a traffic disruption is currently active; stamps deliveries
    /// and rejections recorded while set.
    disruption_active: bool,
}

impl MetricsCollector {
    /// Creates a collector for a run of the given policy and workload size.
    pub fn new(policy: impl Into<String>, total_orders: usize, horizon: Duration) -> Self {
        MetricsCollector {
            report: SimulationReport {
                policy: policy.into(),
                total_orders,
                delivered: Vec::new(),
                rejected: Vec::new(),
                rejected_during_disruption: 0,
                cancelled: Vec::new(),
                undelivered: Vec::new(),
                windows: Vec::new(),
                distance_by_load_m: vec![[0.0; MAX_TRACKED_LOAD + 1]; HourSlot::COUNT],
                waiting_by_slot: vec![Duration::ZERO; HourSlot::COUNT],
                horizon,
            },
            disruption_active: false,
        }
    }

    /// The report as accumulated so far.
    pub(crate) fn report(&self) -> &SimulationReport {
        &self.report
    }

    /// Counts one more offered order. Batch runs pass the workload size to
    /// [`MetricsCollector::new`] up front; the streaming service starts at
    /// zero and counts orders as they are submitted.
    pub fn record_offered(&mut self) {
        self.report.total_orders += 1;
    }

    /// Number of rejections recorded so far (cheap mid-run probe).
    pub fn rejected_count(&self) -> usize {
        self.report.rejected.len()
    }

    /// Updates the disruption flag stamped onto subsequent deliveries and
    /// rejections. The simulation toggles this at window boundaries as
    /// traffic perturbations start and clear.
    pub fn set_disruption_active(&mut self, active: bool) {
        self.disruption_active = active;
    }

    /// Records a delivered order and returns the record (so callers can
    /// surface the computed XDT, e.g. as a typed output event). `sdt` is the
    /// order's shortest delivery time (Definition 6); the XDT is clamped at
    /// zero to absorb the tiny negative values that time-varying edge
    /// weights can produce.
    pub fn record_delivery(
        &mut self,
        id: OrderId,
        placed_at: TimePoint,
        delivered_at: TimePoint,
        sdt: Duration,
    ) -> DeliveredOrder {
        let edt = delivered_at.saturating_since(placed_at);
        let xdt = edt.saturating_sub(sdt);
        let record = DeliveredOrder {
            id,
            placed_at,
            delivered_at,
            xdt,
            slot: placed_at.hour_slot(),
            during_disruption: self.disruption_active,
        };
        self.report.delivered.push(record);
        record
    }

    /// Records a rejected order.
    pub fn record_rejection(&mut self, id: OrderId) {
        self.report.rejected.push(id);
        if self.disruption_active {
            self.report.rejected_during_disruption += 1;
        }
    }

    /// Records a customer cancellation (before pickup).
    pub fn record_cancellation(&mut self, id: OrderId) {
        self.report.cancelled.push(id);
    }

    /// Records an order left undelivered at the end of the run.
    pub fn record_undelivered(&mut self, id: OrderId) {
        self.report.undelivered.push(id);
    }

    /// Records one driven edge.
    pub fn record_drive(&mut self, at: TimePoint, load: usize, length_m: f64) {
        let slot = at.hour_slot().index();
        let bucket = load.min(MAX_TRACKED_LOAD);
        self.report.distance_by_load_m[slot][bucket] += length_m;
    }

    /// Records restaurant waiting time.
    pub fn record_wait(&mut self, at: TimePoint, waited: Duration) {
        self.report.waiting_by_slot[at.hour_slot().index()] += waited;
    }

    /// Records a completed accumulation window.
    pub fn record_window(&mut self, stats: WindowStats) {
        self.report.windows.push(stats);
    }

    /// Finalises the report.
    pub fn finish(self) -> SimulationReport {
        self.report
    }
}

impl Codec for DeliveredOrder {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.placed_at.encode(out);
        self.delivered_at.encode(out);
        self.xdt.encode(out);
        self.slot.encode(out);
        self.during_disruption.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(DeliveredOrder {
            id: OrderId::decode(reader)?,
            placed_at: TimePoint::decode(reader)?,
            delivered_at: TimePoint::decode(reader)?,
            xdt: Duration::decode(reader)?,
            slot: HourSlot::decode(reader)?,
            during_disruption: bool::decode(reader)?,
        })
    }
}

impl Codec for WindowStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.closed_at.encode(out);
        self.slot.encode(out);
        self.orders.encode(out);
        self.vehicles.encode(out);
        self.assigned.encode(out);
        self.compute_secs.encode(out);
        self.overflown.encode(out);
        self.disrupted.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let closed_at = TimePoint::decode(reader)?;
        let slot = HourSlot::decode(reader)?;
        let orders = usize::decode(reader)?;
        let vehicles = usize::decode(reader)?;
        let assigned = usize::decode(reader)?;
        let compute_secs = f64::decode(reader)?;
        if !(compute_secs.is_finite() && compute_secs >= 0.0) {
            return Err(DecodeError::Invalid(format!(
                "window compute time must be finite and non-negative, got {compute_secs}"
            )));
        }
        let overflown = bool::decode(reader)?;
        let disrupted = bool::decode(reader)?;
        Ok(WindowStats {
            closed_at,
            slot,
            orders,
            vehicles,
            assigned,
            compute_secs,
            overflown,
            disrupted,
        })
    }
}

/// The report under construction and the disruption flag round-trip, so a
/// restored collector finishes into the same [`SimulationReport`] the
/// uninterrupted run would produce.
impl Codec for MetricsCollector {
    fn encode(&self, out: &mut Vec<u8>) {
        let report = &self.report;
        report.policy.encode(out);
        report.total_orders.encode(out);
        report.horizon.encode(out);
        report.delivered.encode(out);
        report.rejected.encode(out);
        report.rejected_during_disruption.encode(out);
        report.cancelled.encode(out);
        report.undelivered.encode(out);
        report.windows.encode(out);
        report.distance_by_load_m.encode(out);
        report.waiting_by_slot.encode(out);
        self.disruption_active.encode(out);
    }
    fn decode(reader: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Written in `encode`'s order: a literal's fields evaluate as written.
        let report = SimulationReport {
            policy: Codec::decode(reader)?,
            total_orders: Codec::decode(reader)?,
            horizon: Codec::decode(reader)?,
            delivered: Codec::decode(reader)?,
            rejected: Codec::decode(reader)?,
            rejected_during_disruption: Codec::decode(reader)?,
            cancelled: Codec::decode(reader)?,
            undelivered: Codec::decode(reader)?,
            windows: Codec::decode(reader)?,
            distance_by_load_m: Codec::decode(reader)?,
            waiting_by_slot: Codec::decode(reader)?,
        };
        if let Some(metres) =
            report.distance_by_load_m.iter().flatten().find(|m| !(m.is_finite() && **m >= 0.0))
        {
            return Err(DecodeError::Invalid(format!(
                "distance histogram entries must be finite and non-negative, got {metres}"
            )));
        }
        let rows = (report.distance_by_load_m.len(), report.waiting_by_slot.len());
        if rows != (HourSlot::COUNT, HourSlot::COUNT) {
            return Err(DecodeError::Invalid(format!(
                "per-slot histograms must have {} rows, got {} and {}",
                HourSlot::COUNT,
                rows.0,
                rows.1
            )));
        }
        Ok(MetricsCollector { report, disruption_active: bool::decode(reader)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> MetricsCollector {
        MetricsCollector::new("Test", 10, Duration::from_hours(24.0))
    }

    #[test]
    fn delivery_xdt_is_clamped_and_sloted() {
        let mut c = collector();
        let placed = TimePoint::from_hms(13, 0, 0);
        c.record_delivery(
            OrderId(1),
            placed,
            TimePoint::from_hms(13, 40, 0),
            Duration::from_mins(25.0),
        );
        // Delivered "faster than physically possible" (bad SDT estimate):
        c.record_delivery(
            OrderId(2),
            placed,
            TimePoint::from_hms(13, 10, 0),
            Duration::from_mins(20.0),
        );
        let report = c.finish();
        assert_eq!(report.delivered.len(), 2);
        assert!((report.delivered[0].xdt.as_mins_f64() - 15.0).abs() < 1e-9);
        assert_eq!(report.delivered[1].xdt, Duration::ZERO);
        assert_eq!(report.delivered[0].slot, HourSlot::new(13));
        assert!((report.total_xdt_hours() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn orders_per_km_weights_by_load() {
        let mut c = collector();
        let noon = TimePoint::from_hms(12, 0, 0);
        // 2 km empty, 4 km with one order, 4 km with two orders.
        c.record_drive(noon, 0, 2_000.0);
        c.record_drive(noon, 1, 4_000.0);
        c.record_drive(noon, 2, 4_000.0);
        let report = c.finish();
        // (0*2 + 1*4 + 2*4) / 10 km = 1.2 orders per km.
        assert!((report.orders_per_km() - 1.2).abs() < 1e-9);
        assert!((report.total_km() - 10.0).abs() < 1e-9);
        let by_slot = report.orders_per_km_by_slot();
        assert!((by_slot[12] - 1.2).abs() < 1e-9);
        assert_eq!(by_slot[3], 0.0);
    }

    #[test]
    fn objective_adds_rejection_penalty() {
        let mut c = collector();
        c.record_delivery(
            OrderId(1),
            TimePoint::from_hms(12, 0, 0),
            TimePoint::from_hms(12, 30, 0),
            Duration::from_mins(20.0),
        );
        c.record_rejection(OrderId(2));
        let report = c.finish();
        assert!((report.objective_secs(7200.0) - (600.0 + 7200.0)).abs() < 1e-9);
        assert!((report.rejection_rate_pct() - 10.0).abs() < 1e-9);
        assert!((report.delivery_rate_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_statistics_split_peak_and_offpeak() {
        let mut c = collector();
        let mk = |hour: u32, overflown: bool| WindowStats {
            closed_at: TimePoint::from_hms(hour, 0, 0),
            slot: HourSlot::new(hour as u8),
            orders: 5,
            vehicles: 3,
            assigned: 3,
            compute_secs: if overflown { 200.0 } else { 0.5 },
            overflown,
            disrupted: false,
        };
        c.record_window(mk(3, false));
        c.record_window(mk(13, true));
        c.record_window(mk(20, false));
        c.record_window(mk(21, true));
        let report = c.finish();
        assert!((report.overflow_pct(false) - 50.0).abs() < 1e-9);
        // Peak windows: 13, 20, 21 → 2 of 3 overflown.
        assert!((report.overflow_pct(true) - 66.666_666).abs() < 1e-3);
        assert!(report.mean_window_compute_secs() > 0.0);
    }

    #[test]
    fn waiting_time_accumulates_per_slot() {
        let mut c = collector();
        c.record_wait(TimePoint::from_hms(19, 10, 0), Duration::from_mins(6.0));
        c.record_wait(TimePoint::from_hms(19, 50, 0), Duration::from_mins(12.0));
        c.record_wait(TimePoint::from_hms(9, 0, 0), Duration::from_mins(30.0));
        let report = c.finish();
        assert!((report.waiting_hours() - 0.8).abs() < 1e-9);
        let by_slot = report.waiting_hours_by_slot();
        assert!((by_slot[19] - 0.3).abs() < 1e-9);
        assert!((by_slot[9] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn per_day_scaling_uses_the_horizon() {
        let mut c = MetricsCollector::new("Test", 4, Duration::from_hours(6.0));
        c.record_delivery(
            OrderId(1),
            TimePoint::from_hms(12, 0, 0),
            TimePoint::from_hms(13, 0, 0),
            Duration::from_mins(30.0),
        );
        let report = c.finish();
        // 0.5 h of XDT over a 6 h horizon scales to 2 h/day.
        assert!((report.xdt_hours_per_day() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let report = collector().finish();
        assert_eq!(report.total_xdt_hours(), 0.0);
        assert_eq!(report.orders_per_km(), 0.0);
        assert_eq!(report.overflow_pct(false), 0.0);
        assert_eq!(report.mean_window_compute_secs(), 0.0);
        assert_eq!(report.cancellation_rate_pct(), 0.0);
        assert_eq!(report.disrupted_window_pct(), 0.0);
        assert_eq!(report.xdt_hours_disrupted(), 0.0);
    }

    #[test]
    fn cancellations_are_accounted_separately_from_rejections() {
        let mut c = collector();
        c.record_cancellation(OrderId(4));
        c.record_rejection(OrderId(5));
        let report = c.finish();
        assert_eq!(report.cancelled, vec![OrderId(4)]);
        assert_eq!(report.rejected, vec![OrderId(5)]);
        assert!((report.cancellation_rate_pct() - 10.0).abs() < 1e-9);
        assert!((report.rejection_rate_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn disruption_flag_stamps_deliveries_and_rejections() {
        let mut c = collector();
        let placed = TimePoint::from_hms(12, 0, 0);
        c.record_delivery(OrderId(1), placed, TimePoint::from_hms(12, 40, 0), Duration::ZERO);
        c.set_disruption_active(true);
        c.record_delivery(OrderId(2), placed, TimePoint::from_hms(12, 50, 0), Duration::ZERO);
        c.record_rejection(OrderId(3));
        c.set_disruption_active(false);
        c.record_rejection(OrderId(4));
        let report = c.finish();
        assert!(!report.delivered[0].during_disruption);
        assert!(report.delivered[1].during_disruption);
        assert_eq!(report.delivered_during_disruption(), 1);
        assert_eq!(report.rejected_during_disruption, 1);
        // XDT attribution: order 2 carries all the disrupted XDT.
        assert!((report.xdt_hours_disrupted() - 50.0 / 60.0).abs() < 1e-9);
        assert!((report.total_xdt_hours() - (40.0 + 50.0) / 60.0).abs() < 1e-9);
    }
}
