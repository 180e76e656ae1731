//! # foodmatch-core
//!
//! The primary contribution of *"Batching and Matching for Food Delivery in
//! Dynamic Road Networks"* (ICDE 2021): the FOODMATCH order-dispatch
//! pipeline, its baselines, and the cost model they share.
//!
//! The crate is organised exactly along the paper's sections:
//!
//! | Module | Paper section | Content |
//! |---|---|---|
//! | [`order`], [`vehicle`] | §II Defs. 2, 4 | orders, vehicles, capacity constraints |
//! | [`route`] | §II Def. 3 | route plans and the exhaustive quickest-route planner |
//! | [`cost`] | §II Defs. 5–7, §III Def. 9 | SDT / EDT / XDT and marginal costs |
//! | [`window`] | §III | accumulation-window snapshots and assignment outcomes |
//! | [`batching`] | §IV-B, Alg. 1 | the order graph and iterative clustering |
//! | [`foodgraph`] | §IV-A/C/D, Alg. 2, Eq. 8 | the (sparsified) bipartite FoodGraph with angular distance |
//! | [`policies`] | §III, §IV, §V | Greedy, vanilla KM, FOODMATCH, and the Reyes-style baseline |
//! | [`config`] | §V-B | operational constraints and algorithm parameters |
//! | [`codec`] | — | deterministic binary encoding for checkpoints and the WAL |
//!
//! ## Quick example
//!
//! ```
//! use foodmatch_core::{
//!     config::DispatchConfig,
//!     order::{Order, OrderId},
//!     policies::{DispatchPolicy, FoodMatchPolicy},
//!     vehicle::{VehicleId, VehicleSnapshot},
//!     window::WindowSnapshot,
//! };
//! use foodmatch_roadnet::{generators::GridCityBuilder, Duration, ShortestPathEngine, TimePoint};
//!
//! // A small synthetic city and a shared shortest-path engine.
//! let grid = GridCityBuilder::new(6, 6);
//! let engine = ShortestPathEngine::cached(grid.build());
//!
//! // One accumulation window: two orders, two idle vehicles.
//! let t = TimePoint::from_hms(12, 30, 0);
//! let window = WindowSnapshot::new(
//!     t,
//!     vec![
//!         Order::new(OrderId(1), grid.node_at(1, 1), grid.node_at(4, 4), t, 2, Duration::from_mins(9.0)),
//!         Order::new(OrderId(2), grid.node_at(1, 1), grid.node_at(4, 5), t, 1, Duration::from_mins(7.0)),
//!     ],
//!     vec![
//!         VehicleSnapshot::idle(VehicleId(0), grid.node_at(0, 0)),
//!         VehicleSnapshot::idle(VehicleId(1), grid.node_at(5, 5)),
//!     ],
//! );
//!
//! let mut policy = FoodMatchPolicy::new();
//! let outcome = policy.assign(&window, &engine, &DispatchConfig::default());
//! assert_eq!(outcome.assigned_order_count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batching;
pub mod codec;
pub mod config;
pub mod cost;
pub mod foodgraph;
mod legs;
pub mod order;
pub mod policies;
pub mod route;
pub mod vehicle;
pub mod window;

pub use batching::{batch_orders, singleton_batches, Batch, BatchingOutcome};
pub use codec::{crc32, ByteReader, Codec, DecodeError};
pub use config::{ConfigError, DispatchConfig};
pub use cost::{marginal_cost, shortest_delivery_time, MarginalCost};
pub use foodgraph::{build_food_graph, FoodGraph};
pub use foodmatch_matching::parallel_map;
pub use order::{Order, OrderId};
pub use policies::{
    DispatchPolicy, FoodMatchPolicy, GreedyPolicy, KuhnMunkresPolicy, PolicyKind, ReyesPolicy,
};
pub use route::{plan_optimal_route, EvaluatedRoute, PlannedOrder, RoutePlan, Stop, StopAction};
pub use vehicle::{CommittedOrder, VehicleId, VehicleSnapshot};
pub use window::{AssignmentOutcome, VehicleAssignment, WindowSnapshot};
