//! Order sources: demand as a *stream* instead of a pre-materialized list.
//!
//! The online [`DispatchService`](foodmatch_sim::DispatchService) is driven
//! by submitting orders as they are placed; [`OrderSource`] is the supply
//! side of that interface. A driver loop polls the source once per tick and
//! submits whatever arrived:
//!
//! ```
//! use foodmatch_core::FoodMatchPolicy;
//! use foodmatch_roadnet::Duration;
//! use foodmatch_workload::{CityId, OrderSource, PoissonOrderSource, Scenario, ScenarioOptions};
//!
//! let mut options = ScenarioOptions::lunch_peak(7);
//! options.end = options.start + Duration::from_mins(9.0);
//! let scenario = Scenario::generate(CityId::GrubHub, options);
//! let mut source = PoissonOrderSource::new(&scenario, 42);
//! let sim = scenario.into_simulation();
//! let mut service = sim.service(FoodMatchPolicy::new());
//! while !service.is_finished() {
//!     let tick = service.now() + service.config().accumulation_window;
//!     for order in source.poll(tick) {
//!         assert!(service.submit_order(order).is_accepted());
//!     }
//!     service.advance_to(tick);
//! }
//! let report = service.report();
//! assert_eq!(
//!     report.delivered.len() + report.rejected.len() + report.undelivered.len(),
//!     report.total_orders,
//! );
//! ```
//!
//! Two implementations ship here:
//!
//! * [`ReplayOrderSource`] — replays a pre-materialized stream (a
//!   [`Scenario`]'s order list, a recorded day) in placement order; the
//!   bridge between the batch world and the streaming API.
//! * [`PoissonOrderSource`] — *closed-loop live demand*: orders do not
//!   exist until the clock reaches them. Each poll draws the interval it
//!   uncovers through the one arrival function that also builds a
//!   [`Scenario`]'s order list (the diurnal non-homogeneous Poisson process,
//!   [`HOURLY_WEIGHTS`](crate::demand::HOURLY_WEIGHTS) × the city's daily
//!   volume, restaurants by popularity, customers within the delivery
//!   radius), from a seed of its own. A driver can so run the service
//!   against demand no scenario file ever materialised, and still
//!   reproduce the day exactly from the seed and the poll instants.

use crate::scenario::{GeneratedCity, Scenario};
use foodmatch_core::Order;
use foodmatch_roadnet::TimePoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A stream of orders, polled forward in time by a service driver.
///
/// Implementations must be deterministic for a given construction (same
/// polls → same orders) and must return each order exactly once, with
/// `placed_at` inside the polled interval and non-decreasing across calls.
pub trait OrderSource {
    /// Drains every order placed up to (and including) `until`, in
    /// `(placed_at, id)` order. Subsequent calls continue after `until`;
    /// polling backwards yields nothing.
    fn poll(&mut self, until: TimePoint) -> Vec<Order>;

    /// True once the source can never produce another order.
    fn is_exhausted(&self) -> bool;
}

/// Replays a pre-materialized order stream (sorted internally).
#[derive(Clone, Debug)]
pub struct ReplayOrderSource {
    orders: Vec<Order>,
    cursor: usize,
}

impl ReplayOrderSource {
    /// Wraps any order list; the stream is sorted by `(placed_at, id)`.
    pub fn new(mut orders: Vec<Order>) -> Self {
        orders.sort_by(|a, b| a.placed_at.cmp(&b.placed_at).then(a.id.cmp(&b.id)));
        ReplayOrderSource { orders, cursor: 0 }
    }
}

impl OrderSource for ReplayOrderSource {
    fn poll(&mut self, until: TimePoint) -> Vec<Order> {
        let from = self.cursor;
        while self.cursor < self.orders.len() && self.orders[self.cursor].placed_at <= until {
            self.cursor += 1;
        }
        self.orders[from..self.cursor].to_vec()
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.orders.len()
    }
}

/// Closed-loop live demand: a seeded non-homogeneous Poisson arrival
/// process over a generated city's restaurant directory, drawn one polled
/// interval at a time by the arrival function behind
/// [`Scenario::generate`]. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct PoissonOrderSource {
    rng: StdRng,
    city: GeneratedCity,
    orders_per_day: usize,
    /// Demand generated so far covers `(start, cursor]`.
    cursor: TimePoint,
    end: TimePoint,
    /// The id the next generated order will get.
    next_id: u64,
}

impl PoissonOrderSource {
    /// A live source over `scenario`'s city, covering the scenario's
    /// horizon at the city preset's daily volume. The `seed` is independent
    /// of the scenario's: two sources with different seeds are two
    /// different demand days over the same city.
    pub fn new(scenario: &Scenario, seed: u64) -> Self {
        PoissonOrderSource {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xF00D)),
            city: scenario.city.clone(),
            orders_per_day: scenario.city.preset.orders_per_day,
            cursor: scenario.options.start,
            end: scenario.options.end,
            next_id: 0,
        }
    }

    /// Scales the expected daily order volume (builder style).
    pub fn with_orders_per_day(mut self, orders_per_day: usize) -> Self {
        self.orders_per_day = orders_per_day;
        self
    }
}

impl OrderSource for PoissonOrderSource {
    fn poll(&mut self, until: TimePoint) -> Vec<Order> {
        let target = until.min(self.end);
        if target <= self.cursor {
            return Vec::new();
        }
        let orders = self.city.arrivals(
            self.cursor,
            target,
            self.orders_per_day,
            self.next_id,
            &mut self.rng,
        );
        self.cursor = target;
        self.next_id += orders.len() as u64;
        orders
    }

    fn is_exhausted(&self) -> bool {
        self.cursor >= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CityId, ScenarioOptions};
    use foodmatch_roadnet::{Duration, NodeId};

    fn scenario() -> Scenario {
        Scenario::generate(
            CityId::GrubHub,
            ScenarioOptions {
                seed: 3,
                start: TimePoint::from_hms(12, 0, 0),
                end: TimePoint::from_hms(13, 0, 0),
                vehicle_fraction: 1.0,
            },
        )
    }

    #[test]
    fn replay_source_streams_the_scenario_in_order() {
        let s = scenario();
        let mut source = ReplayOrderSource::new(s.orders.clone());
        let total = s.orders.len();
        assert_eq!(source.orders.len(), total);

        let mut seen = Vec::new();
        let mut tick = s.options.start;
        while !source.is_exhausted() {
            tick += Duration::from_mins(5.0);
            for order in source.poll(tick) {
                assert!(order.placed_at <= tick);
                seen.push(order);
            }
        }
        assert_eq!(seen.len(), total);
        assert!(seen
            .windows(2)
            .all(|w| { (w[0].placed_at, w[0].id) <= (w[1].placed_at, w[1].id) }));
        // The stream content matches the scenario's batch list.
        let mut expected = s.orders.clone();
        expected.sort_by(|a, b| a.placed_at.cmp(&b.placed_at).then(a.id.cmp(&b.id)));
        assert_eq!(seen, expected);
        assert!(source.poll(tick + Duration::from_hours(2.0)).is_empty());
    }

    #[test]
    fn poisson_source_is_deterministic_per_seed_and_tick_pattern() {
        let s = scenario();
        let drain = |mut source: PoissonOrderSource, step_mins: f64| -> Vec<Order> {
            let mut out = Vec::new();
            let mut tick = s.options.start;
            while !source.is_exhausted() {
                tick += Duration::from_mins(step_mins);
                out.extend(source.poll(tick));
            }
            out
        };
        let a = drain(PoissonOrderSource::new(&s, 42), 3.0);
        let b = drain(PoissonOrderSource::new(&s, 42), 3.0);
        assert_eq!(a, b, "same seed, same ticks, same demand");
        let c = drain(PoissonOrderSource::new(&s, 43), 3.0);
        assert_ne!(a, c, "a different seed is a different day");
    }

    #[test]
    fn poisson_orders_are_wellformed_and_inside_the_horizon() {
        let s = scenario();
        let mut source = PoissonOrderSource::new(&s, 11);
        let orders = source.poll(s.options.end + Duration::from_hours(1.0));
        assert!(source.is_exhausted());
        assert!(!orders.is_empty(), "a lunch hour of GrubHub demand is never empty");
        let restaurant_nodes: std::collections::HashSet<NodeId> =
            s.city.restaurants.iter().map(|r| r.node).collect();
        for o in &orders {
            assert!(o.placed_at >= s.options.start && o.placed_at <= s.options.end);
            assert!(restaurant_nodes.contains(&o.restaurant));
            assert!(o.customer.index() < s.city.network.node_count());
            assert!(o.items >= 1 && o.items <= 5);
            assert!(o.prep_time.as_mins_f64() >= 2.0 && o.prep_time.as_mins_f64() <= 35.0);
        }
        let mut ids: Vec<u64> = orders.iter().map(|o| o.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), orders.len(), "ids are unique");
    }

    #[test]
    fn poisson_volume_tracks_the_configured_rate() {
        let s = scenario();
        // One lunch hour at 10x the preset volume: expect roughly
        // 10 * orders_per_day * weight(12:00).
        let rate = 10 * s.city.preset.orders_per_day;
        let mut source = PoissonOrderSource::new(&s, 5).with_orders_per_day(rate);
        let got = source.poll(s.options.end).len() as f64;
        let expected = rate as f64 * crate::demand::HOURLY_WEIGHTS[12];
        assert!(
            (got - expected).abs() < expected * 0.35,
            "expected ≈{expected} orders in the hour, generated {got}"
        );
    }

    /// `crc32` over the concatenated encodings of `orders`, and their count.
    fn digest(orders: &[Order]) -> (u32, usize) {
        let mut bytes = Vec::new();
        for order in orders {
            foodmatch_core::Codec::encode(order, &mut bytes);
        }
        (foodmatch_core::crc32(&bytes), orders.len())
    }

    #[test]
    fn generated_demand_matches_its_pinned_digests() {
        // (city, horizon, scenario list, one poll to the end, 3-minute
        // ticks at three times the preset's volume): each a (crc32, count).
        type Pin = (CityId, ScenarioOptions, [(u32, usize); 3]);
        let pins: [Pin; 8] = [
            (
                CityId::A,
                ScenarioOptions::lunch_peak(1),
                [(0x7004d4c3, 65), (0x8c14bf51, 78), (0x13e3743f, 209)],
            ),
            (
                CityId::A,
                ScenarioOptions::full_day(3),
                [(0x8654c69f, 236), (0x0586aa69, 226), (0xcb9846d3, 645)],
            ),
            (
                CityId::B,
                ScenarioOptions::lunch_peak(1),
                [(0x06fbdea8, 460), (0xe6a3a966, 436), (0x0034c486, 1398)],
            ),
            (
                CityId::B,
                ScenarioOptions::full_day(3),
                [(0xcbd6a6c2, 1511), (0xbbd937bb, 1484), (0x5617053b, 4578)],
            ),
            (
                CityId::C,
                ScenarioOptions::lunch_peak(1),
                [(0x594eedcd, 352), (0x012bf9c1, 328), (0x02abed14, 958)],
            ),
            (
                CityId::C,
                ScenarioOptions::full_day(3),
                [(0xcf092677, 1026), (0xa67f91ba, 1124), (0xa47cb733, 3151)],
            ),
            (
                CityId::GrubHub,
                ScenarioOptions::lunch_peak(1),
                [(0x4a4e72fa, 27), (0xc28526f6, 28), (0x7ca35141, 85)],
            ),
            (
                CityId::GrubHub,
                ScenarioOptions::full_day(3),
                [(0x8c156ae9, 96), (0xba3fd966, 108), (0xeb118aaf, 293)],
            ),
        ];
        for (city, options, expected) in pins {
            let s = Scenario::generate(city, options);
            let one = PoissonOrderSource::new(&s, 42).poll(s.options.end);
            let mut source = PoissonOrderSource::new(&s, 42)
                .with_orders_per_day(3 * s.city.preset.orders_per_day);
            let (mut ticked, mut tick) = (Vec::new(), s.options.start);
            while !source.is_exhausted() {
                tick += Duration::from_mins(3.0);
                ticked.extend(source.poll(tick));
            }
            let got = [digest(&s.orders), digest(&one), digest(&ticked)];
            assert_eq!(got, expected, "{} from {:?}", city.name(), options.start);
        }
    }

    #[test]
    fn polling_backwards_or_past_the_end_is_a_no_op() {
        let s = scenario();
        let mut source = PoissonOrderSource::new(&s, 9);
        source.next_id = 1000;
        let first = source.poll(s.options.start + Duration::from_mins(30.0));
        assert!(source.poll(s.options.start).is_empty(), "backwards poll yields nothing");
        let rest = source.poll(s.options.end + Duration::from_hours(5.0));
        assert!(source.is_exhausted());
        assert!(source.poll(s.options.end + Duration::from_hours(6.0)).is_empty());
        assert!(first.iter().chain(&rest).all(|o| o.id.0 >= 1000));
        assert_eq!(source.next_id, 1000 + (first.len() + rest.len()) as u64);
    }
}
