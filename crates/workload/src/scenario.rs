//! End-to-end scenario generation: synthetic city → restaurants → order
//! stream → fleet → a ready-to-run [`Simulation`].
//!
//! All randomness is seeded, so a `(CityId, seed)` pair always yields the
//! same network, restaurants, orders and vehicle positions; experiments vary
//! the seed to emulate the paper's 6-fold cross-validation over days.

use crate::city::{CityId, CityPreset};
use crate::demand::{clamped_normal, poisson, HOURLY_WEIGHTS};
use foodmatch_core::{DispatchConfig, Order, OrderId, VehicleId};
use foodmatch_roadnet::generators::{GridCityBuilder, RandomCityBuilder};
use foodmatch_roadnet::{Duration, HourSlot, NodeId, RoadNetwork, ShortestPathEngine, TimePoint};
use foodmatch_sim::Simulation;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// A restaurant in a generated city.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Restaurant {
    /// The road-network node the restaurant sits on.
    pub node: NodeId,
    /// Popularity weight (how often customers order from it).
    pub popularity: f64,
    /// Mean preparation time of this restaurant, in minutes.
    pub mean_prep_mins: f64,
}

/// A generated city: road network plus restaurant directory.
#[derive(Clone, Debug)]
pub struct GeneratedCity {
    /// The preset the city was generated from.
    pub preset: CityPreset,
    /// The synthetic road network.
    pub network: RoadNetwork,
    /// The restaurants.
    pub restaurants: Vec<Restaurant>,
}

impl GeneratedCity {
    /// THE demand model: the orders placed in `[from, to)` when the city
    /// takes `orders_per_day` a day, numbered `first_id..` in draw order and
    /// returned sorted by `(placed_at, id)`. The batch [`Scenario`] and the
    /// live [`PoissonOrderSource`](crate::source::PoissonOrderSource) both
    /// draw through it, so the two cannot drift apart.
    ///
    /// Each hour slot that overlaps `[from, to)`, in order, draws a Poisson
    /// count with mean `orders_per_day` × [`HOURLY_WEIGHTS`] × the overlap's
    /// share of the hour; each of its orders then draws, in this order, a
    /// uniform `placed_at` inside the overlap, a restaurant by popularity, a
    /// customer within the delivery radius, a preparation time (peak hours
    /// run 15 % slower) and an item count. That RNG consumption order is
    /// part of the determinism contract.
    pub(crate) fn arrivals(
        &self,
        from: TimePoint,
        to: TimePoint,
        orders_per_day: usize,
        first_id: u64,
        rng: &mut StdRng,
    ) -> Vec<Order> {
        let total_popularity: f64 = self.restaurants.iter().map(|r| r.popularity).sum();
        let mut orders = Vec::new();
        for hour in 0..24u32 {
            let slot_start = TimePoint::from_hms(hour, 0, 0);
            let slot_end = TimePoint::from_hms(hour, 59, 59) + Duration::from_secs_f64(1.0);
            let lo = from.max(slot_start);
            let hi = to.min(slot_end);
            if hi <= lo {
                continue;
            }
            let overlap_fraction = (hi - lo).as_secs_f64() / 3_600.0;
            let expected = orders_per_day as f64 * HOURLY_WEIGHTS[hour as usize] * overlap_fraction;
            // Peak-hour kitchens run a little slower.
            let peak_factor = if HourSlot::new(hour as u8).is_peak() { 1.15 } else { 1.0 };
            for _ in 0..poisson(rng, expected) {
                let placed_at =
                    lo + Duration::from_secs_f64(rng.random_range(0.0..(hi - lo).as_secs_f64()));
                let restaurant = pick_restaurant(&self.restaurants, total_popularity, rng);
                let customer = pick_customer(&self.network, restaurant.node, rng);
                let prep_mins =
                    clamped_normal(rng, restaurant.mean_prep_mins * peak_factor, 3.0, 2.0, 35.0);
                let items = 1 + (rng.random_range(0.0_f64..1.0).powi(2) * 4.0).floor() as u32;
                let id = OrderId(first_id + orders.len() as u64);
                let prep_time = Duration::from_mins(prep_mins);
                orders.push(Order::new(id, restaurant.node, customer, placed_at, items, prep_time));
            }
        }
        orders.sort_by(|a, b| a.placed_at.cmp(&b.placed_at).then(a.id.cmp(&b.id)));
        orders
    }
}

/// Options controlling scenario generation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioOptions {
    /// Seed mixed into every random choice (think "which day of the 6-day
    /// dataset").
    pub seed: u64,
    /// Start of the simulated horizon.
    pub start: TimePoint,
    /// End of the simulated horizon (orders are only placed inside it).
    pub end: TimePoint,
    /// Fraction of the preset's fleet that is on duty (Fig. 7 subsamples
    /// vehicles; 1.0 = the full fleet).
    pub vehicle_fraction: f64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        ScenarioOptions {
            seed: 1,
            start: TimePoint::MIDNIGHT,
            end: TimePoint::from_hms(23, 59, 59),
            vehicle_fraction: 1.0,
        }
    }
}

impl ScenarioOptions {
    /// A full-day scenario with the given seed.
    pub fn full_day(seed: u64) -> Self {
        ScenarioOptions { seed, ..Default::default() }
    }

    /// A scenario restricted to the lunch peak (11:00–15:00), the slice used
    /// by the parameter sweeps so they run in reasonable time.
    pub fn lunch_peak(seed: u64) -> Self {
        ScenarioOptions {
            seed,
            start: TimePoint::from_hms(11, 0, 0),
            end: TimePoint::from_hms(15, 0, 0),
            vehicle_fraction: 1.0,
        }
    }

    /// Scales the number of on-duty vehicles.
    pub fn with_vehicle_fraction(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0 && fraction <= 1.0, "vehicle fraction must be in (0, 1]");
        self.vehicle_fraction = fraction;
        self
    }
}

/// A fully generated scenario, ready to run.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The generated city (network + restaurants).
    pub city: GeneratedCity,
    /// The order stream for the requested horizon.
    pub orders: Vec<Order>,
    /// Vehicle starting positions.
    pub vehicle_starts: Vec<(VehicleId, NodeId)>,
    /// The options the scenario was generated with.
    pub options: ScenarioOptions,
}

impl Scenario {
    /// Generates the scenario for a city preset.
    pub fn generate(city: CityId, options: ScenarioOptions) -> Self {
        let preset = CityPreset::of(city);
        let mut rng = StdRng::seed_from_u64(
            preset.base_seed.wrapping_mul(0x9E37_79B9).wrapping_add(options.seed),
        );

        let network = build_network(&preset, &mut rng);
        let restaurants = place_restaurants(&preset, &network, &mut rng);
        let city = GeneratedCity { preset, network, restaurants };
        let orders =
            city.arrivals(options.start, options.end, city.preset.orders_per_day, 0, &mut rng);
        let vehicle_count =
            ((city.preset.vehicles as f64 * options.vehicle_fraction).round() as usize).max(1);
        let all_nodes: Vec<NodeId> = city.network.node_ids().collect();
        let vehicle_starts: Vec<(VehicleId, NodeId)> = (0..vehicle_count)
            .map(|i| (VehicleId(i as u32), *all_nodes.choose(&mut rng).expect("network has nodes")))
            .collect();

        Scenario { city, orders, vehicle_starts, options }
    }

    /// The dispatcher configuration matching this city (its Δ) and the
    /// paper's defaults for everything else.
    pub fn default_config(&self) -> DispatchConfig {
        DispatchConfig { accumulation_window: self.city.preset.delta, ..Default::default() }
    }

    /// Wraps the scenario into a runnable [`Simulation`] with a caching
    /// shortest-path engine and the default configuration.
    pub fn into_simulation(self) -> Simulation {
        let config = self.default_config();
        self.into_simulation_with(config)
    }

    /// Wraps the scenario into a runnable [`Simulation`] with an explicit
    /// dispatcher configuration.
    pub fn into_simulation_with(self, config: DispatchConfig) -> Simulation {
        let engine = ShortestPathEngine::cached(self.city.network.clone());
        Simulation::new(
            engine,
            self.orders,
            self.vehicle_starts,
            config,
            self.options.start,
            self.options.end,
        )
    }

    /// Number of orders per hour slot — the numerator of Fig. 6(a).
    pub fn orders_by_slot(&self) -> [usize; HourSlot::COUNT] {
        let mut out = [0usize; HourSlot::COUNT];
        for order in &self.orders {
            out[order.placed_at.hour_slot().index()] += 1;
        }
        out
    }

    /// Order-to-vehicle ratio per hour slot (Fig. 6(a)).
    pub fn order_vehicle_ratio_by_slot(&self) -> [f64; HourSlot::COUNT] {
        let vehicles = self.vehicle_starts.len().max(1) as f64;
        let mut out = [0.0; HourSlot::COUNT];
        for (slot, &count) in self.orders_by_slot().iter().enumerate() {
            out[slot] = count as f64 / vehicles;
        }
        out
    }

    /// The Table II row of this scenario.
    pub fn table2_row(&self) -> CityStats {
        let avg_prep_mins = if self.orders.is_empty() {
            0.0
        } else {
            self.orders.iter().map(|o| o.prep_time.as_mins_f64()).sum::<f64>()
                / self.orders.len() as f64
        };
        CityStats {
            city: self.city.preset.id,
            restaurants: self.city.restaurants.len(),
            vehicles: self.vehicle_starts.len(),
            orders: self.orders.len(),
            avg_prep_mins,
            nodes: self.city.network.node_count(),
            edges: self.city.network.edge_count(),
        }
    }
}

/// One row of the dataset-summary table (Table II).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CityStats {
    /// The city.
    pub city: CityId,
    /// Number of restaurants.
    pub restaurants: usize,
    /// Number of vehicles on duty.
    pub vehicles: usize,
    /// Number of orders in the generated horizon.
    pub orders: usize,
    /// Average food-preparation time in minutes.
    pub avg_prep_mins: f64,
    /// Road-network nodes.
    pub nodes: usize,
    /// Road-network edges.
    pub edges: usize,
}

fn build_network(preset: &CityPreset, rng: &mut StdRng) -> RoadNetwork {
    if preset.id == CityId::GrubHub {
        // A small regular grid: the GrubHub instances have no road network in
        // the paper either, so structure hardly matters.
        let side = (preset.network_nodes as f64).sqrt().round() as usize;
        GridCityBuilder::new(side.max(3), side.max(3)).spacing_m(400.0).build()
    } else {
        RandomCityBuilder::new(preset.network_nodes)
            .radius_m(preset.radius_m)
            .seed(rng.random())
            .build()
    }
}

fn place_restaurants(
    preset: &CityPreset,
    network: &RoadNetwork,
    rng: &mut StdRng,
) -> Vec<Restaurant> {
    let nodes: Vec<NodeId> = network.node_ids().collect();
    // Restaurants cluster around a handful of "food street" hotspots.
    let hotspot_count = (preset.restaurants / 12).clamp(3, 10);
    let hotspots: Vec<NodeId> =
        (0..hotspot_count).map(|_| *nodes.choose(rng).expect("nodes")).collect();

    let mut restaurants = Vec::with_capacity(preset.restaurants);
    for rank in 0..preset.restaurants {
        let node = if rng.random_range(0.0..1.0) < 0.7 {
            // Near a hotspot: snap a position jittered around the hotspot
            // to its nearest node.
            let hotspot = *hotspots.choose(rng).expect("hotspots");
            let base = network.position(hotspot);
            let jitter = 0.004; // ≈ 400 m
            let target = foodmatch_roadnet::GeoPoint::new(
                base.lat + rng.random_range(-jitter..jitter),
                base.lon + rng.random_range(-jitter..jitter),
            );
            network.nearest_node(target)
        } else {
            *nodes.choose(rng).expect("nodes")
        };
        // Zipf-like popularity: a few restaurants dominate order volume.
        let popularity = 1.0 / (rank as f64 + 1.5);
        let mean_prep_mins = clamped_normal(rng, preset.mean_prep_mins, 2.5, 3.0, 30.0);
        restaurants.push(Restaurant { node, popularity, mean_prep_mins });
    }
    restaurants
}

fn pick_restaurant<'a>(
    restaurants: &'a [Restaurant],
    total_popularity: f64,
    rng: &mut StdRng,
) -> &'a Restaurant {
    let mut target = rng.random_range(0.0..total_popularity);
    for restaurant in restaurants {
        if target < restaurant.popularity {
            return restaurant;
        }
        target -= restaurant.popularity;
    }
    restaurants.last().expect("at least one restaurant")
}

fn pick_customer(network: &RoadNetwork, restaurant: NodeId, rng: &mut StdRng) -> NodeId {
    // Customers live within the delivery radius of the restaurant (the paper
    // notes platforms only show nearby restaurants). Rejection-sample a few
    // times, then settle for whatever came closest.
    const DELIVERY_RADIUS_M: f64 = 3_000.0;
    let mut best = restaurant;
    let mut best_distance = f64::INFINITY;
    for _ in 0..12 {
        // Node ids are dense, so this is a uniform pick over the network.
        let candidate = NodeId(rng.random_range(0..network.node_count()) as u32);
        if candidate == restaurant {
            continue;
        }
        let d = network.haversine_between(restaurant, candidate);
        if d <= DELIVERY_RADIUS_M {
            return candidate;
        }
        if d < best_distance {
            best_distance = d;
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_options() -> ScenarioOptions {
        ScenarioOptions::lunch_peak(7)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = Scenario::generate(CityId::A, small_options());
        let b = Scenario::generate(CityId::A, small_options());
        assert_eq!(a.orders.len(), b.orders.len());
        assert_eq!(a.vehicle_starts, b.vehicle_starts);
        assert_eq!(a.city.restaurants.len(), b.city.restaurants.len());
        let c = Scenario::generate(CityId::A, ScenarioOptions::lunch_peak(8));
        assert_ne!(
            a.orders.iter().map(|o| o.placed_at.as_secs_f64()).sum::<f64>(),
            c.orders.iter().map(|o| o.placed_at.as_secs_f64()).sum::<f64>()
        );
    }

    #[test]
    fn orders_fall_inside_the_horizon_and_reference_real_nodes() {
        let s = Scenario::generate(CityId::A, small_options());
        assert!(!s.orders.is_empty());
        for o in &s.orders {
            assert!(o.placed_at >= s.options.start && o.placed_at < s.options.end);
            assert!(o.restaurant.index() < s.city.network.node_count());
            assert!(o.customer.index() < s.city.network.node_count());
            assert_ne!(o.restaurant, o.customer);
            assert!(o.items >= 1 && o.items <= 5);
            assert!(o.prep_time.as_mins_f64() >= 2.0 && o.prep_time.as_mins_f64() <= 35.0);
        }
    }

    #[test]
    fn orders_come_from_the_restaurant_directory() {
        let s = Scenario::generate(CityId::A, small_options());
        let restaurant_nodes: std::collections::HashSet<NodeId> =
            s.city.restaurants.iter().map(|r| r.node).collect();
        for o in &s.orders {
            assert!(restaurant_nodes.contains(&o.restaurant));
        }
    }

    #[test]
    fn full_day_volume_tracks_the_preset() {
        let s = Scenario::generate(CityId::A, ScenarioOptions::full_day(3));
        let expected = CityPreset::of(CityId::A).orders_per_day as f64;
        let got = s.orders.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "expected ≈{expected} orders, generated {got}"
        );
        // Demand peaks at lunch and dinner.
        let by_slot = s.orders_by_slot();
        assert!(by_slot[19] + by_slot[20] > by_slot[9] + by_slot[10]);
        assert!(by_slot[12] + by_slot[13] > by_slot[3] + by_slot[4]);
    }

    #[test]
    fn vehicle_fraction_scales_the_fleet() {
        let full = Scenario::generate(CityId::A, ScenarioOptions::full_day(3));
        let half =
            Scenario::generate(CityId::A, ScenarioOptions::full_day(3).with_vehicle_fraction(0.5));
        assert_eq!(full.vehicle_starts.len(), CityPreset::of(CityId::A).vehicles);
        assert!(
            (half.vehicle_starts.len() as f64 - full.vehicle_starts.len() as f64 * 0.5).abs()
                <= 1.0
        );
    }

    #[test]
    fn ratio_by_slot_peaks_at_meal_times() {
        let s = Scenario::generate(CityId::B, ScenarioOptions::full_day(11));
        let ratio = s.order_vehicle_ratio_by_slot();
        assert!(ratio[19] > ratio[4]);
        assert!(ratio[12] > ratio[9]);
    }

    #[test]
    fn table2_row_is_consistent() {
        let s = Scenario::generate(CityId::GrubHub, ScenarioOptions::full_day(5));
        let row = s.table2_row();
        assert_eq!(row.city, CityId::GrubHub);
        assert_eq!(row.nodes, s.city.network.node_count());
        assert_eq!(row.orders, s.orders.len());
        assert!(row.avg_prep_mins > 10.0, "GrubHub prep should be long, got {}", row.avg_prep_mins);
    }

    #[test]
    fn scenario_converts_into_a_runnable_simulation() {
        let s = Scenario::generate(
            CityId::GrubHub,
            ScenarioOptions {
                seed: 2,
                start: TimePoint::from_hms(12, 0, 0),
                end: TimePoint::from_hms(12, 30, 0),
                vehicle_fraction: 1.0,
            },
        );
        let config = s.default_config();
        assert_eq!(config.accumulation_window, CityPreset::of(CityId::GrubHub).delta);
        let sim = s.into_simulation();
        let report = sim.run(&mut foodmatch_core::GreedyPolicy::new());
        assert_eq!(
            report.delivered.len() + report.rejected.len() + report.undelivered.len(),
            report.total_orders
        );
    }
}
