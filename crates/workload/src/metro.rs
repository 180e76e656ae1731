//! Metro-scale workloads for the sharded dispatch router.
//!
//! The preset cities (Table II) are compact: every vehicle reaches every
//! restaurant inside the first-mile bound, so a single
//! [`DispatchService`](foodmatch_sim::DispatchService) sees one dense
//! component. A metro is different — restaurant hotspots sit farther apart
//! than a courier is ever dispatched, demand decomposes geographically, and
//! that is exactly the regime [`DispatchRouter`] shards over.
//!
//! [`MetroScenario::generate`] builds such a city deterministically: a
//! large, sparse grid (1.3 km blocks by default) with `zones` restaurant
//! hotspots spread to the city edges, orders clustered around the hotspots
//! (restaurants tightly, customers a short hop away), a fleet seeded around
//! the same hotspots so every zone has couriers, and a 15-minute first-mile
//! bound in [`MetroScenario::config`]. The geometry matches the metro tier
//! of the matching benchmark, so results compose across experiments.
//!
//! The scenario does not fix the sharding: [`MetroScenario::zone_map`]
//! partitions one zone per hotspot, and
//! [`MetroScenario::grouped_zone_map`] coarsens the same city into any
//! smaller shard count — the way the router benchmark scales 1 → 2 → 4
//! shards over an *identical* workload.

use foodmatch_core::{DispatchConfig, DispatchPolicy, Order, OrderId, VehicleId};
use foodmatch_roadnet::generators::GridCityBuilder;
use foodmatch_roadnet::{Duration, GeoPoint, NodeId, RoadNetwork, TimePoint};
use foodmatch_sim::{DispatchRouter, ZoneId, ZoneMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape and horizon of a generated metro. Every field participates in the
/// deterministic generation: same options, same metro.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetroOptions {
    /// Seed for the order/fleet draws.
    pub seed: u64,
    /// Number of restaurant hotspots (and zones in [`MetroScenario::zone_map`]).
    pub zones: usize,
    /// Grid side length, in intersections.
    pub grid: usize,
    /// Block length, in meters (sparse by design: a metro, not a downtown).
    pub spacing_m: f64,
    /// Orders placed across the horizon.
    pub orders: usize,
    /// Fleet size.
    pub vehicles: usize,
    /// When demand starts.
    pub start: TimePoint,
    /// When demand ends (deliveries drain past this).
    pub end: TimePoint,
}

impl MetroOptions {
    /// A four-zone lunch-hour metro (the router benchmark's quick shape).
    pub fn lunch_peak(seed: u64) -> Self {
        MetroOptions {
            seed,
            zones: 4,
            grid: 50,
            spacing_m: 1_300.0,
            orders: 300,
            vehicles: 250,
            start: TimePoint::from_hms(12, 0, 0),
            end: TimePoint::from_hms(13, 0, 0),
        }
    }
}

/// A generated metro-scale workload: the road network, the hotspot
/// geography, and a materialized demand/fleet day. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct MetroScenario {
    /// The metro road network.
    pub network: RoadNetwork,
    /// One center per restaurant hotspot, in hotspot order.
    pub zone_centers: Vec<GeoPoint>,
    /// The order stream, sorted by `(placed_at, id)`.
    pub orders: Vec<Order>,
    /// Vehicle start positions, round-robin across hotspots.
    pub vehicle_starts: Vec<(VehicleId, NodeId)>,
    /// The options the metro was generated from.
    pub options: MetroOptions,
}

impl MetroScenario {
    /// Generates the metro deterministically from `options`.
    ///
    /// # Panics
    /// Panics when `options.zones` is zero or the grid is degenerate.
    pub fn generate(options: MetroOptions) -> Self {
        assert!(options.zones > 0, "a metro needs at least one hotspot");
        assert!(options.grid >= 10, "a metro grid under 10x10 is not a metro");
        let builder = GridCityBuilder::new(options.grid, options.grid).spacing_m(options.spacing_m);
        let network = builder.build();

        // Hotspots on a 2×⌈zones/2⌉ grid spread to the city edges — the
        // same geometry as the matching benchmark's metro tier, far enough
        // apart that the first-mile bound keeps zones separate.
        let per_row = options.zones.div_ceil(2);
        let col_step = if per_row > 1 { (options.grid * 3 / 5) / (per_row - 1) } else { 0 };
        let hotspots: Vec<(usize, usize)> = (0..options.zones)
            .map(|z| {
                let row = if z < per_row { options.grid / 5 } else { options.grid * 4 / 5 };
                let col = options.grid / 5 + (z % per_row) * col_step;
                (row, col)
            })
            .collect();
        let zone_centers: Vec<GeoPoint> =
            hotspots.iter().map(|&(r, c)| network.position(builder.node_at(r, c))).collect();

        let mut rng =
            StdRng::seed_from_u64(options.seed.wrapping_mul(0x9E37_79B9).wrapping_add(97));
        let horizon_secs = (options.end - options.start).as_secs_f64().max(1.0);
        let mut orders: Vec<Order> = (0..options.orders)
            .map(|i| {
                let (hr, hc) = hotspots[rng.random_range(0..hotspots.len())];
                let mut jitter = |v: usize, span: i64| {
                    (v as i64 + rng.random_range(-span..=span)).clamp(0, options.grid as i64 - 1)
                        as usize
                };
                // Restaurants cluster tight around the hotspot, customers a
                // short hop away — first and last mile both stay zone-local.
                let (rr, rc) = (jitter(hr, 2), jitter(hc, 2));
                let (cr, cc) = (jitter(hr, 6), jitter(hc, 6));
                let placed_at =
                    options.start + Duration::from_secs_f64(rng.random_range(0.0..horizon_secs));
                Order::new(
                    OrderId(i as u64),
                    builder.node_at(rr, rc),
                    builder.node_at(cr, cc),
                    placed_at,
                    1 + (i % 2) as u32,
                    Duration::from_mins(6.0),
                )
            })
            .collect();
        orders.sort_by(|a, b| a.placed_at.cmp(&b.placed_at).then(a.id.cmp(&b.id)));

        // Fleet: round-robin across hotspots so every zone has couriers
        // regardless of how the map is later grouped.
        let vehicle_starts: Vec<(VehicleId, NodeId)> = (0..options.vehicles)
            .map(|i| {
                let (hr, hc) = hotspots[i % hotspots.len()];
                let mut jitter = |v: usize, span: i64| {
                    (v as i64 + rng.random_range(-span..=span)).clamp(0, options.grid as i64 - 1)
                        as usize
                };
                let node = builder.node_at(jitter(hr, 6), jitter(hc, 6));
                (VehicleId(i as u32), node)
            })
            .collect();

        MetroScenario { network, zone_centers, orders, vehicle_starts, options }
    }

    /// The natural sharding: one zone per hotspot.
    pub fn zone_map(&self) -> ZoneMap {
        ZoneMap::voronoi(&self.network, &self.zone_centers)
    }

    /// The same metro coarsened to `groups` shards: hotspots are chunked in
    /// order and each chunk's mean position seeds one zone. `groups == 1`
    /// is the single-shard map; `groups == zones` is [`Self::zone_map`].
    ///
    /// # Panics
    /// Panics when `groups` is zero or exceeds the hotspot count.
    pub fn grouped_zone_map(&self, groups: usize) -> ZoneMap {
        assert!(groups > 0 && groups <= self.zone_centers.len(), "groups must be in 1..=zones");
        let chunk = self.zone_centers.len().div_ceil(groups);
        let centers: Vec<GeoPoint> = self
            .zone_centers
            .chunks(chunk)
            .map(|c| {
                let n = c.len() as f64;
                GeoPoint::new(
                    c.iter().map(|p| p.lat).sum::<f64>() / n,
                    c.iter().map(|p| p.lon).sum::<f64>() / n,
                )
            })
            .collect();
        ZoneMap::voronoi(&self.network, &centers)
    }

    /// The dispatcher configuration a metro runs under: the default loop
    /// with a 15-minute first-mile bound (a metro dispatcher never sends a
    /// courier across town).
    pub fn config(&self) -> DispatchConfig {
        DispatchConfig { max_first_mile: Duration::from_mins(15.0), ..DispatchConfig::default() }
    }

    /// Wires the metro into a [`DispatchRouter`] over `zones`, one policy
    /// instance per zone, with a two-hour drain.
    pub fn router<P: DispatchPolicy>(
        &self,
        zones: ZoneMap,
        make_policy: impl FnMut(ZoneId) -> P,
    ) -> DispatchRouter<P> {
        DispatchRouter::new(
            &self.network,
            zones,
            self.vehicle_starts.clone(),
            make_policy,
            self.config(),
            self.options.start,
            self.options.end,
            Duration::from_hours(2.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foodmatch_core::GreedyPolicy;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = MetroScenario::generate(MetroOptions::lunch_peak(7));
        let b = MetroScenario::generate(MetroOptions::lunch_peak(7));
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.vehicle_starts, b.vehicle_starts);
        assert_eq!(a.zone_centers, b.zone_centers);
        let c = MetroScenario::generate(MetroOptions::lunch_peak(8));
        assert_ne!(a.orders, c.orders, "a different seed is a different day");
    }

    #[test]
    fn orders_are_sorted_and_inside_the_horizon() {
        let m = MetroScenario::generate(MetroOptions::lunch_peak(3));
        assert_eq!(m.orders.len(), m.options.orders);
        assert!(m
            .orders
            .windows(2)
            .all(|w| (w[0].placed_at, w[0].id) <= (w[1].placed_at, w[1].id)));
        for o in &m.orders {
            assert!(o.placed_at >= m.options.start && o.placed_at <= m.options.end);
        }
    }

    #[test]
    fn every_zone_gets_restaurants_and_fleet() {
        let m = MetroScenario::generate(MetroOptions::lunch_peak(5));
        let map = m.zone_map();
        assert_eq!(map.zone_count(), m.options.zones);
        let mut orders_per_zone = vec![0usize; map.zone_count()];
        for o in &m.orders {
            orders_per_zone[map.zone_of(o.restaurant).expect("in area").index()] += 1;
        }
        let mut fleet_per_zone = vec![0usize; map.zone_count()];
        for (_, node) in &m.vehicle_starts {
            fleet_per_zone[map.zone_of(*node).expect("in area").index()] += 1;
        }
        for z in 0..map.zone_count() {
            assert!(orders_per_zone[z] > 0, "zone {z} got no demand");
            assert!(fleet_per_zone[z] > 0, "zone {z} got no fleet");
        }
    }

    #[test]
    fn grouped_maps_coarsen_the_same_city() {
        let m = MetroScenario::generate(MetroOptions::lunch_peak(5));
        assert_eq!(m.grouped_zone_map(1).zone_count(), 1);
        assert_eq!(m.grouped_zone_map(2).zone_count(), 2);
        assert_eq!(m.grouped_zone_map(4).zone_count(), 4);
        // Every node stays assigned in every grouping.
        for groups in [1, 2, 4] {
            let map = m.grouped_zone_map(groups);
            for node in m.network.node_ids() {
                assert!(map.zone_of(node).is_some());
            }
        }
    }

    #[test]
    fn the_metro_runs_end_to_end_through_a_router() {
        let mut options = MetroOptions::lunch_peak(2);
        options.orders = 40;
        options.vehicles = 32;
        let m = MetroScenario::generate(options);
        let mut router = m.router(m.zone_map(), |_| GreedyPolicy::new());
        for order in &m.orders {
            assert!(router.submit_order(*order).is_accepted());
        }
        let report = router.run_to_completion();
        assert_eq!(report.aggregate.total_orders, options.orders);
        assert_eq!(
            report.aggregate.delivered.len()
                + report.aggregate.rejected.len()
                + report.aggregate.undelivered.len(),
            options.orders,
        );
    }
}
