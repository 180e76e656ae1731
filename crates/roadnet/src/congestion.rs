//! Time-of-day congestion model.
//!
//! In the paper, `β(e, t)` — the traversal time of edge `e` at time `t` — is
//! learned from GPS pings of the delivery fleet, aggregated into 24 hourly
//! slots (§V-A, "Road Network"). We do not have that data, so the synthetic
//! substitute works as follows: every edge carries a *free-flow* traversal
//! time (length / free-flow speed of its [`RoadClass`]) and a
//! [`CongestionProfile`] supplies a per-class multiplier for each hour slot.
//! The effective weight is `β(e, t) = free_flow(e) × multiplier(class(e),
//! slot(t))`.
//!
//! Because the multipliers differ across road classes, the *relative* cost of
//! alternative routes genuinely changes over the day (arterials get congested
//! at the peaks while local streets stay flat), so time dependence is not a
//! trivial global rescaling and the shortest-path layer is exercised exactly
//! as it would be with measured weights.

use crate::timeofday::HourSlot;

/// Functional class of a road segment, controlling free-flow speed and how
/// strongly the segment reacts to peak-hour congestion.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RoadClass {
    /// High-capacity roads: fast when free-flowing, heavily congested at peaks.
    Arterial,
    /// Medium distributor roads.
    Collector,
    /// Neighbourhood streets: slow but almost unaffected by congestion.
    Local,
}

impl RoadClass {
    /// All road classes, in decreasing order of capacity.
    pub const ALL: [RoadClass; 3] = [RoadClass::Arterial, RoadClass::Collector, RoadClass::Local];

    /// Free-flow speed in meters per second used when deriving edge travel
    /// times from lengths.
    pub fn free_flow_speed_mps(self) -> f64 {
        match self {
            RoadClass::Arterial => 13.9, // ~50 km/h
            RoadClass::Collector => 9.7, // ~35 km/h
            RoadClass::Local => 6.9,     // ~25 km/h
        }
    }

    /// Dense index used to look up per-class congestion rows.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RoadClass::Arterial => 0,
            RoadClass::Collector => 1,
            RoadClass::Local => 2,
        }
    }
}

/// Per-hour, per-road-class travel-time multipliers.
///
/// A multiplier of `1.0` means free flow; `1.8` means the segment takes 80%
/// longer than free flow during that hour.
#[derive(Clone, Debug, PartialEq)]
pub struct CongestionProfile {
    /// `multipliers[class][hour]`.
    multipliers: [[f64; HourSlot::COUNT]; 3],
}

impl CongestionProfile {
    /// A profile with no congestion at any hour (all multipliers `1.0`).
    pub fn free_flow() -> Self {
        CongestionProfile { multipliers: [[1.0; HourSlot::COUNT]; 3] }
    }

    /// The default metropolitan profile: morning (8–10), lunch (12–14) and
    /// evening (18–21) build-ups, strongest on arterials, mild on local
    /// streets. Shapes are chosen so that lunch and dinner — the paper's peak
    /// delivery slots — are also the most congested travel slots.
    pub fn metropolitan() -> Self {
        let mut multipliers = [[1.0; HourSlot::COUNT]; 3];
        // Baseline hourly shape, before per-class scaling.
        let shape: [f64; 24] = [
            0.00, 0.00, 0.00, 0.00, 0.00, 0.05, 0.15, 0.35, 0.55, 0.50, 0.35, 0.40, 0.60, 0.65,
            0.45, 0.30, 0.35, 0.50, 0.70, 0.80, 0.75, 0.55, 0.25, 0.10,
        ];
        // How strongly each class responds to the shape.
        let sensitivity = [1.0, 0.65, 0.25];
        for class in RoadClass::ALL {
            for (hour, s) in shape.iter().enumerate() {
                multipliers[class.index()][hour] = 1.0 + s * sensitivity[class.index()];
            }
        }
        CongestionProfile { multipliers }
    }

    /// The travel-time multiplier for `class` during `slot`.
    #[inline]
    pub fn multiplier(&self, class: RoadClass, slot: HourSlot) -> f64 {
        self.multipliers[class.index()][slot.index()]
    }

    /// The largest multiplier across all classes and hours. Used to bound
    /// `max β(e', t)` in the normalisation of Eq. 8.
    pub fn max_multiplier(&self) -> f64 {
        self.multipliers.iter().flat_map(|row| row.iter().copied()).fold(1.0_f64, f64::max)
    }
}

impl Default for CongestionProfile {
    fn default() -> Self {
        CongestionProfile::metropolitan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_flow_profile_is_identity() {
        let p = CongestionProfile::free_flow();
        for class in RoadClass::ALL {
            for slot in HourSlot::all() {
                assert_eq!(p.multiplier(class, slot), 1.0);
            }
        }
        assert_eq!(p.max_multiplier(), 1.0);
    }

    #[test]
    fn metropolitan_peaks_exceed_offpeak() {
        let p = CongestionProfile::metropolitan();
        let night = p.multiplier(RoadClass::Arterial, HourSlot::new(3));
        let dinner = p.multiplier(RoadClass::Arterial, HourSlot::new(19));
        assert!(dinner > night + 0.3, "dinner {dinner} vs night {night}");
    }

    #[test]
    fn local_roads_are_less_sensitive_than_arterials() {
        let p = CongestionProfile::metropolitan();
        for slot in HourSlot::all() {
            let a = p.multiplier(RoadClass::Arterial, slot);
            let l = p.multiplier(RoadClass::Local, slot);
            assert!(l <= a + 1e-12, "local {l} > arterial {a} at {slot:?}");
        }
    }

    #[test]
    fn max_multiplier_is_attained() {
        let p = CongestionProfile::metropolitan();
        let max = p.max_multiplier();
        let p_ref = &p;
        let attained = RoadClass::ALL
            .iter()
            .flat_map(|&c| HourSlot::all().map(move |s| p_ref.multiplier(c, s)))
            .fold(0.0_f64, f64::max);
        assert!((max - attained).abs() < 1e-12);
    }

    #[test]
    fn class_speeds_are_ordered() {
        assert!(
            RoadClass::Arterial.free_flow_speed_mps() > RoadClass::Collector.free_flow_speed_mps()
        );
        assert!(
            RoadClass::Collector.free_flow_speed_mps() > RoadClass::Local.free_flow_speed_mps()
        );
    }
}
