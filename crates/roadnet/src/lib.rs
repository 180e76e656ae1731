//! # foodmatch-roadnet
//!
//! Road-network substrate for the FoodMatch reproduction ("Batching and
//! Matching for Food Delivery in Dynamic Road Networks", ICDE 2021).
//!
//! The paper models a city as a weighted directed graph `G = (V, E, β)`
//! (Definition 1) where `β(e, t)` is the time needed to traverse road segment
//! `e` at time-of-day `t`. Every higher layer of the system — route planning,
//! batching, the FoodGraph, and the simulator — consumes the network solely
//! through the interfaces exposed here:
//!
//! * [`RoadNetwork`] — the graph itself with per-edge lengths, free-flow
//!   travel times and road classes, plus node geometry (latitude/longitude).
//! * [`CongestionProfile`] — hour-of-day travel-time multipliers per road
//!   class, giving the time dependence of `β(e, t)`.
//! * [`dijkstra`] — exact time-sliced shortest paths over one eager search
//!   kernel: the two memo-free references, [`dijkstra::one_to_many`] and
//!   [`dijkstra::shortest_path`] (on `β(e, t)` or on a [`TrafficOverlay`]'s
//!   weights), and a lazy best-first [`dijkstra::Expansion`] iterator used by
//!   the sparsified FoodGraph construction (Algorithm 2 in the paper).
//! * [`ShortestPathEngine`] — the distance oracle the dispatcher asks: the
//!   same Dijkstra behind a memo of pairs and shortest-path trees, one hour
//!   slot at a time, which answers what the paper asks of its hub labels
//!   with the distances the references give, bit for bit; path queries are
//!   one Dijkstra. Its pool is where searches, and expansions, get their
//!   [`SearchSpace`].
//! * [`gates`] — gated sweeps: one-to-many queries whose conditional targets
//!   are answered only when a trigger of theirs lies within a radius (the
//!   FoodGraph's first-mile bound), searched no further than that decides.
//! * [`TrafficOverlay`] — live edge-speed perturbations (incidents, rain,
//!   localized slowdowns; multipliers `≥ 1`, so roads slow but never close)
//!   layered over the static weights; the engine renders the installed
//!   overlay into one multiplier per edge and answers a perturbed query its
//!   memo does not know with one run of the same search kernel under the
//!   overlaid weight — no index is rebuilt or asked (see [`overlay`]).
//! * [`generators`] — synthetic city generators (grid and random-geometric)
//!   that replace the proprietary OpenStreetMap/Swiggy extracts used in the
//!   paper's evaluation.
//! * [`geo`] — haversine distances, bearings (Definition 10) and the angular
//!   distance used by the vehicle-sensitive edge weight (Eq. 8); the network
//!   keeps each node's latitude terms ([`LatTrig`]) for it.
//!
//! ## Quick example
//!
//! ```
//! use foodmatch_roadnet::{dijkstra, generators::GridCityBuilder, ShortestPathEngine, TimePoint};
//!
//! let network = GridCityBuilder::new(6, 6).build();
//! let engine = ShortestPathEngine::cached(network.clone());
//! let a = network.node_ids().next().unwrap();
//! let b = network.node_ids().last().unwrap();
//! let t = TimePoint::from_hms(12, 30, 0);
//! let travel = engine.travel_time(a, b, t).expect("grid is connected");
//! assert!(travel.as_secs_f64() > 0.0);
//! // The memo-free search answers the same, to the bit.
//! let reference = dijkstra::one_to_many(&network, a, &[b], t, None)[0].unwrap();
//! assert_eq!(travel.as_secs_f64().to_bits(), reference.as_secs_f64().to_bits());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod congestion;
pub mod dijkstra;
pub mod gates;
pub mod generators;
pub mod geo;
pub mod graph;
mod grid;
pub mod ids;
pub mod index;
pub mod overlay;
pub mod timeofday;

pub use congestion::{CongestionProfile, RoadClass};
pub use dijkstra::{Expansion, PathResult, SearchSpace};
pub use gates::{GatedAnswers, GatedTargets};
pub use geo::{angular_distance, bearing, haversine_meters, AngularFrame, GeoPoint, LatTrig};
pub use graph::{EdgeRecord, NodeRecord, RoadNetwork, RoadNetworkBuilder};
pub use ids::{EdgeId, NodeId};
pub use index::ShortestPathEngine;
pub use overlay::TrafficOverlay;
pub use timeofday::{Duration, HourSlot, TimePoint};

/// Unwraps what `Mutex::lock` / `RwLock::{read, write}` returned, taking the
/// guard of a poisoned lock too: every lock of this crate guards a memo or a
/// pool, which a panicking holder leaves valid.
pub(crate) fn lock<G>(result: std::sync::LockResult<G>) -> G {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}
