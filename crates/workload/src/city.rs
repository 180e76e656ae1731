//! City presets shaped like Table II of the paper.
//!
//! The paper's datasets are proprietary (Swiggy order history for three
//! anonymous Indian cities) plus the public GrubHub instances of Reyes et
//! al. The presets below are *synthetic stand-ins*: they preserve the
//! relative proportions reported in Table II — City B is the busiest with
//! the highest order-to-vehicle ratio, City C has the most restaurants but
//! fewer orders, City A is an order of magnitude smaller, GrubHub is tiny —
//! while scaling absolute volumes down (≈1/50) so a full day simulates in
//! minutes on a laptop. Mean food-preparation times match the paper exactly.

use foodmatch_roadnet::Duration;

/// Identifier of a synthetic city preset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CityId {
    /// The smaller Indian city of Table II.
    A,
    /// The busiest metropolitan city (highest order volume and
    /// order-to-vehicle ratio).
    B,
    /// The largest city by restaurants and road network, with somewhat fewer
    /// orders than City B.
    C,
    /// A GrubHub-like instance: tiny volume, no learned parameters.
    GrubHub,
}

impl CityId {
    /// The three Swiggy-like cities (most experiments exclude GrubHub, as
    /// does the paper outside Fig. 6(b)).
    pub const SWIGGY: [CityId; 3] = [CityId::B, CityId::C, CityId::A];

    /// All four presets.
    pub const ALL: [CityId; 4] = [CityId::B, CityId::C, CityId::A, CityId::GrubHub];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CityId::A => "City A",
            CityId::B => "City B",
            CityId::C => "City C",
            CityId::GrubHub => "GrubHub",
        }
    }
}

/// Parameters of a synthetic city, shaped after one row of Table II.
#[derive(Clone, Debug, PartialEq)]
pub struct CityPreset {
    /// Which city this is.
    pub id: CityId,
    /// Number of road-network intersections to generate.
    pub network_nodes: usize,
    /// Radius of the city in meters.
    pub radius_m: f64,
    /// Number of restaurants.
    pub restaurants: usize,
    /// Number of delivery vehicles on duty.
    pub vehicles: usize,
    /// Orders placed over a full 24-hour day.
    pub orders_per_day: usize,
    /// Mean food-preparation time (minutes) — matches Table II.
    pub mean_prep_mins: f64,
    /// Default accumulation-window length Δ for this city (§V-B: 3 min for
    /// the big cities, 1 min for City A).
    pub delta: Duration,
    /// Base RNG seed for the preset (combined with the caller's seed).
    pub base_seed: u64,
}

impl CityPreset {
    /// The preset for `city`.
    pub fn of(city: CityId) -> Self {
        match city {
            CityId::B => CityPreset {
                id: CityId::B,
                network_nodes: 1200,
                radius_m: 7_000.0,
                restaurants: 140,
                vehicles: 110,
                orders_per_day: 1500,
                mean_prep_mins: 9.34,
                delta: Duration::from_mins(3.0),
                base_seed: 0xB,
            },
            CityId::C => CityPreset {
                id: CityId::C,
                network_nodes: 1500,
                radius_m: 8_000.0,
                restaurants: 170,
                vehicles: 90,
                orders_per_day: 1050,
                mean_prep_mins: 10.22,
                delta: Duration::from_mins(3.0),
                base_seed: 0xC,
            },
            CityId::A => CityPreset {
                id: CityId::A,
                network_nodes: 550,
                radius_m: 4_000.0,
                restaurants: 45,
                vehicles: 23,
                orders_per_day: 230,
                mean_prep_mins: 8.45,
                delta: Duration::from_mins(1.0),
                base_seed: 0xA,
            },
            CityId::GrubHub => CityPreset {
                id: CityId::GrubHub,
                network_nodes: 144,
                radius_m: 2_500.0,
                restaurants: 10,
                vehicles: 16,
                orders_per_day: 100,
                mean_prep_mins: 19.55,
                delta: Duration::from_mins(3.0),
                base_seed: 0x6,
            },
        }
    }

    /// The presets of all four cities.
    pub fn all() -> Vec<CityPreset> {
        CityId::ALL.iter().map(|&c| CityPreset::of(c)).collect()
    }

    /// Mean daily orders per vehicle — the "pressure" that distinguishes the
    /// cities in the paper (highest in City B).
    pub fn orders_per_vehicle(&self) -> f64 {
        self.orders_per_day as f64 / self.vehicles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_preserve_table2_ordering() {
        let a = CityPreset::of(CityId::A);
        let b = CityPreset::of(CityId::B);
        let c = CityPreset::of(CityId::C);
        let g = CityPreset::of(CityId::GrubHub);

        // City B fulfils the most orders and has the highest pressure.
        assert!(b.orders_per_day > c.orders_per_day);
        assert!(c.orders_per_day > a.orders_per_day);
        assert!(a.orders_per_day > g.orders_per_day);
        assert!(b.orders_per_vehicle() > c.orders_per_vehicle());
        assert!(b.orders_per_vehicle() > a.orders_per_vehicle());

        // City C has the most restaurants and the largest road network.
        assert!(c.restaurants > b.restaurants);
        assert!(c.network_nodes > b.network_nodes);

        // Prep times follow Table II: GrubHub ≫ C > B > A.
        assert!(g.mean_prep_mins > c.mean_prep_mins);
        assert!(c.mean_prep_mins > b.mean_prep_mins);
        assert!(b.mean_prep_mins > a.mean_prep_mins);

        // Δ follows §V-B: 1 minute for City A, 3 minutes elsewhere.
        assert_eq!(a.delta, Duration::from_mins(1.0));
        assert_eq!(b.delta, Duration::from_mins(3.0));
    }

    #[test]
    fn all_returns_four_presets() {
        let all = CityPreset::all();
        assert_eq!(all.len(), 4);
        assert_eq!(CityId::ALL.len(), 4);
        assert_eq!(CityId::SWIGGY.len(), 3);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(CityId::B.name(), "City B");
        assert_eq!(CityId::GrubHub.name(), "GrubHub");
    }
}
