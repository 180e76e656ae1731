//! The four workloads: what each one generates from a seed, and why.
//!
//! A *run* of a workload is a fixed number of *instances*, each a full
//! scenario driven to completion. Instance `i` has a fixed *environment* —
//! for the city workloads the `i`-th generated City B layout (road network,
//! restaurants, fleet positions) and its traffic-incident pattern, for the
//! metro workloads the `i`-th fleet placement on the metro grid — and the
//! run's seed draws the *day*: the order stream (sub-seed `seed × 1000 + i`)
//! and, through it, the cancellations, prep delays and shift changes.
//!
//! Pooling several short days keeps a run's numbers steady from seed to
//! seed; holding the environment fixed keeps a seed from redrawing the
//! city, which alone moved XDT by ±40 % and drowned every other signal.

use foodmatch_core::{DispatchConfig, Order, VehicleId};
use foodmatch_events::DisruptionEvent;
use foodmatch_roadnet::{Duration, NodeId, RoadNetwork, TimePoint};
use foodmatch_sim::ZoneMap;
use foodmatch_workload::{
    CityId, DisruptionPreset, MetroOptions, MetroScenario, OrderSource, PoissonOrderSource,
    Scenario, ScenarioOptions,
};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CityPeak,
    CityIncidentDurable,
    MetroSingle,
    MetroSharded,
}

/// How the generated world is dispatched.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A bare `DispatchService`.
    Bare,
    /// `DurableDispatch` over a `FlushPolicy::Window` WAL with background
    /// checkpoints and compaction.
    Durable,
    /// A `DispatchRouter` over this zone map.
    Routed(ZoneMap),
}

/// One generated instance: everything the dispatcher is built from, plus
/// the order and event feeds the driver streams into it.
#[derive(Clone, Debug)]
pub struct World {
    pub network: RoadNetwork,
    pub orders: Vec<Order>,
    pub events: Vec<DisruptionEvent>,
    pub vehicle_starts: Vec<(VehicleId, NodeId)>,
    pub config: DispatchConfig,
    pub start: TimePoint,
    pub end: TimePoint,
    pub drain_limit: Duration,
    pub shape: Shape,
    pub generate_ms: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CityPeak,
        Workload::CityIncidentDurable,
        Workload::MetroSingle,
        Workload::MetroSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CityPeak => "city_peak",
            Workload::CityIncidentDurable => "city_incident_durable",
            Workload::MetroSingle => "metro_single",
            Workload::MetroSharded => "metro_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `DispatchConfig::num_threads` of the workload.
    pub fn threads(self) -> usize {
        match self {
            Workload::CityPeak | Workload::MetroSingle => 1,
            Workload::CityIncidentDurable | Workload::MetroSharded => 2,
        }
    }

    /// Seconds one untraced instance was sized to take on the 2-core box
    /// the sizes were probed on. `--seconds` buys `seconds ÷ this`
    /// instances — a count fixed by the arguments, never by the clock, so
    /// the same seed always measures the same inputs.
    pub fn nominal_instance_secs(self) -> f64 {
        match self {
            Workload::CityPeak => 6.5,
            Workload::CityIncidentDurable => 7.5,
            Workload::MetroSingle => 6.5,
            Workload::MetroSharded => 2.3,
        }
    }

    /// Instances in a run of `seconds`; a traced run drives every instance
    /// twice (untraced, then traced), so it gets half as many.
    pub fn instances(self, seconds: f64, traced: bool) -> usize {
        let per_instance = self.nominal_instance_secs() * if traced { 2.0 } else { 1.0 };
        ((seconds / per_instance).round() as usize).max(1)
    }

    /// Generates instance `index` of `seed`. `smoke` shrinks the instance
    /// to roughly a tenth of the work.
    pub fn generate(self, seed: u64, index: usize, smoke: bool) -> World {
        let sub_seed = seed.wrapping_mul(1000).wrapping_add(index as u64);
        let started = Instant::now();
        let mut world = match self {
            Workload::CityPeak | Workload::CityIncidentDurable => {
                self.city(index as u64, sub_seed, smoke)
            }
            Workload::MetroSingle | Workload::MetroSharded => {
                self.metro(index as u64, sub_seed, smoke)
            }
        };
        world.config.num_threads = self.threads();
        world.generate_ms = started.elapsed().as_secs_f64() * 1e3;
        world
    }

    /// City B around the lunch peak. The preset fixes demand and fleet;
    /// only the horizon end is this benchmark's to size.
    fn city(self, layout: u64, seed: u64, smoke: bool) -> World {
        let start = TimePoint::from_hms(10, 30, 0);
        let end = match (smoke, self) {
            (true, _) => TimePoint::from_hms(11, 0, 0),
            (false, Workload::CityIncidentDurable) => TimePoint::from_hms(12, 0, 0),
            (false, _) => TimePoint::from_hms(12, 30, 0),
        };
        let options = ScenarioOptions { seed: layout, start, end, vehicle_fraction: 1.0 };
        let mut scenario = Scenario::generate(CityId::B, options);
        scenario.orders = PoissonOrderSource::new(&scenario, seed).poll(end);
        let durable = self == Workload::CityIncidentDurable;
        let mut events = if durable {
            // Incidents come first out of the builder's generator, so the
            // layout's seed fixes them; the per-order events that follow
            // change with the day's orders.
            DisruptionPreset::IncidentHeavy.builder(layout).build(&scenario)
        } else {
            Vec::new()
        };
        // The builder emits events grouped by kind; a live feed is in time
        // order (stable, so same-instant events keep the builder's order).
        events.sort_by_key(|e| e.at);
        World {
            config: scenario.default_config(),
            network: scenario.city.network,
            orders: scenario.orders,
            events,
            vehicle_starts: scenario.vehicle_starts,
            start,
            end,
            // `Simulation::new`'s drain limit.
            drain_limit: Duration::from_hours(3.0),
            shape: if durable { Shape::Durable } else { Shape::Bare },
            generate_ms: 0.0,
        }
    }

    /// The 4-hotspot, 65 km metro grid, as one zone or as four.
    fn metro(self, placement: u64, seed: u64, smoke: bool) -> World {
        let sharded = self == Workload::MetroSharded;
        let (orders, vehicles) = match (sharded, smoke) {
            (false, false) => (300, 250),
            (false, true) => (60, 80),
            (true, false) => (1500, 1100),
            (true, true) => (240, 200),
        };
        let start = TimePoint::from_hms(12, 0, 0);
        let end =
            if smoke { TimePoint::from_hms(12, 30, 0) } else { TimePoint::from_hms(13, 30, 0) };
        let options =
            MetroOptions { orders, vehicles, start, end, ..MetroOptions::lunch_peak(seed) };
        let mut metro = MetroScenario::generate(options);
        metro.vehicle_starts =
            MetroScenario::generate(MetroOptions { seed: placement, orders: 0, ..options })
                .vehicle_starts;
        let zones = if sharded { metro.zone_map() } else { metro.grouped_zone_map(1) };
        World {
            config: metro.config(),
            network: metro.network,
            orders: metro.orders,
            events: Vec::new(),
            vehicle_starts: metro.vehicle_starts,
            start,
            end,
            // `MetroScenario::router`'s drain limit.
            drain_limit: Duration::from_hours(2.0),
            shape: Shape::Routed(zones),
            generate_ms: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_instance_counts_follow_the_arguments() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert_eq!(workload.instances(0.1, false), 1);
            assert!(workload.instances(20.0, false) >= 2 * workload.instances(20.0, true) - 1);
        }
        assert_eq!(Workload::parse("city"), None);
    }

    #[test]
    fn the_seed_is_the_only_input() {
        let a = Workload::CityIncidentDurable.generate(3, 1, true);
        let b = Workload::CityIncidentDurable.generate(3, 1, true);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.events, b.events);
        assert_eq!(a.vehicle_starts, b.vehicle_starts);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let other_instance = Workload::CityIncidentDurable.generate(3, 2, true);
        let other_seed = Workload::CityIncidentDurable.generate(4, 1, true);
        assert_ne!(a.orders, other_instance.orders);
        assert_ne!(a.orders, other_seed.orders);
    }
}
