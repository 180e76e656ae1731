//! # foodmatch-sim
//!
//! A window-stepped, discrete-event food-delivery simulator for the
//! FoodMatch reproduction.
//!
//! The simulator owns everything the dispatcher (in `foodmatch-core`) does
//! not: vehicles physically moving along road edges, waiting at restaurants
//! for food to be prepared, picking up and dropping off orders, the
//! accumulation-window loop that feeds [`foodmatch_core::WindowSnapshot`]s to
//! a [`foodmatch_core::DispatchPolicy`], rejection of orders that waited too
//! long, replay of [`foodmatch_events::DisruptionEvent`] streams (traffic
//! perturbations, cancellations, prep delays, fleet churn), and the
//! collection of every metric the paper's evaluation reports (XDT, orders
//! per km, waiting time, rejections, cancellations, overflown windows,
//! running time).
//!
//! ## The four entry points
//!
//! The dispatch loop has one implementation — the private `step` module:
//! a `RunState` that lists the run's fields once (with their `Codec`) and
//! `RunState::step_window`, one accumulation window as a function of
//! `(state, engine, policy)` with no recorder, log or filesystem under it —
//! and four drivers, from batch replay to a crash-safe deployment:
//!
//! * **Batch** — [`Simulation`] wraps a pre-materialized scenario and
//!   [`Simulation::run`] replays it through a fresh service, start to drain.
//!   Use this for the paper's experiments and any offline comparison; the
//!   batch and streaming drivers are pinned bit-identical by
//!   `tests/service_equivalence.rs`.
//! * **Streaming** — [`DispatchService`] is the thin shell over that step
//!   (engine, policy, state, telemetry handles), exposed as a streaming
//!   API: [`DispatchService::submit_order`] and
//!   [`DispatchService::ingest_event`] feed demand and disruptions in as
//!   they happen (returning typed [`SubmitOutcome`] / [`IngestOutcome`]
//!   verdicts), [`DispatchService::advance_to`] steps the clock and
//!   returns typed [`DispatchOutput`] events (assignments, pickups,
//!   deliveries, rejections, cancellations, window statistics), and
//!   [`DispatchService::snapshot`] / [`DispatchService::report`] expose the
//!   operational state and metrics at any point mid-run. Use this when
//!   demand is not known in advance: live sources, closed-loop experiments,
//!   services.
//! * **Sharded** — [`DispatchRouter`] scales the streaming surface to a
//!   multi-zone metro: a [`ZoneMap`] partitions the road network into
//!   dispatch zones, each zone runs its own independent [`DispatchService`]
//!   shard, and the router routes orders by restaurant location, targets or
//!   broadcasts disruption events by their
//!   [`EventScope`](foodmatch_events::EventScope), and advances all shards
//!   in lockstep (concurrently, with a deterministic merged output stream
//!   of [`RoutedOutput`]s). A single-zone router is bit-identical to a bare
//!   service; `tests/router_equivalence.rs` pins both that and
//!   thread-count independence.
//! * **Durable** — [`DurableDispatch`] wraps a service or router and makes
//!   it crash-safe: every mutating call is appended to a checksummed
//!   [`WriteAheadLog`] *before* it is applied, with a [`FlushPolicy`]
//!   amortising the fsync across group-committed batches (per record or
//!   per accumulation window — the acked/appended ledger makes the
//!   durability lag explicit). The full dispatcher state (order book and
//!   pools, fleet physics, event schedule, metrics)
//!   checkpoints via [`DispatchService::checkpoint`] /
//!   [`DispatchRouter::checkpoint`] — a clone of the run state — into one
//!   atomically-written container file for either shape
//!   ([`save_checkpoint`] / [`load_checkpoint`]) — off the
//!   dispatch thread with [`BackgroundCheckpointer`], whose sealed
//!   checkpoints anchor [log compaction](WriteAheadLog::compact_below) —
//!   and recovery — restore the latest checkpoint, [`replay_wal`] the log
//!   suffix — lands on the exact state and output stream of a valid prefix
//!   run ending at a flush boundary. Torn log tails from a crash mid-flush
//!   are truncated and tolerated; any other corruption is a typed
//!   [`WalError`] / [`CheckpointError`], never a panic.
//!   `tests/recovery_equivalence.rs` pins recovery bit-identical across
//!   policies, flush policies, crash points and both dispatcher shapes.
//!
//! ### Batch: replay a scenario
//!
//! ```
//! use foodmatch_core::FoodMatchPolicy;
//! use foodmatch_roadnet::Duration;
//! use foodmatch_sim::Simulation;
//! use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
//!
//! // Half an hour of the GrubHub-sized lunch peak, deterministic per seed.
//! let mut options = ScenarioOptions::lunch_peak(1);
//! options.end = options.start + Duration::from_mins(30.0);
//! let sim: Simulation = Scenario::generate(CityId::GrubHub, options).into_simulation();
//! let report = sim.run(&mut FoodMatchPolicy::new());
//! println!("XDT = {:.1} h/day, O/Km = {:.2}", report.xdt_hours_per_day(), report.orders_per_km());
//! assert_eq!(
//!     report.delivered.len() + report.rejected.len() + report.undelivered.len(),
//!     report.total_orders,
//! );
//! ```
//!
//! ### Online: drive the service tick by tick
//!
//! ```
//! use foodmatch_core::{DispatchConfig, FoodMatchPolicy};
//! use foodmatch_roadnet::Duration;
//! use foodmatch_sim::{DispatchOutput, DispatchService, Simulation};
//! use foodmatch_workload::{CityId, Scenario, ScenarioOptions};
//!
//! let mut options = ScenarioOptions::lunch_peak(1);
//! options.end = options.start + Duration::from_mins(15.0);
//! let sim: Simulation = Scenario::generate(CityId::GrubHub, options).into_simulation();
//!
//! // `Simulation::service` wires the scenario's world (engine, fleet,
//! // horizon, config) into an idle service; `DispatchService::new` does
//! // the same from raw parts when there is no scenario.
//! let mut service = sim.service(FoodMatchPolicy::new());
//! // Stream the demand in and step one accumulation window at a time.
//! let mut orders = sim.orders.iter().copied().peekable();
//! let mut now = sim.start;
//! while !service.is_finished() {
//!     now += service.config().accumulation_window;
//!     while orders.peek().is_some_and(|o| o.placed_at <= now) {
//!         let outcome = service.submit_order(orders.next().unwrap());
//!         assert!(outcome.is_accepted());
//!     }
//!     for output in service.advance_to(now) {
//!         if let DispatchOutput::Delivered { order, .. } = output {
//!             println!("delivered {order:?} — {} pending", service.snapshot().pending);
//!         }
//!     }
//! }
//! let report = service.report();
//! assert_eq!(report.total_orders, sim.orders.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod durable;
pub mod engine;
pub mod fleet;
pub mod metrics;
pub mod router;
pub mod service;
mod step;
pub mod wal;

pub use checkpoint::{
    load_checkpoint, save_checkpoint, BackgroundCheckpointer, CheckpointError, RestoreError,
    RouterCheckpoint, ServiceCheckpoint,
};
pub use durable::{replay_wal, DurableDispatch, FailMode, FailPoint, ReplayError, WalTarget};
pub use engine::Simulation;
pub use fleet::{CarriedOrder, FleetEvent, ItineraryStep, VehicleState};
pub use metrics::{DeliveredOrder, MetricsCollector, SimulationReport, WindowStats};
pub use router::{
    DispatchRouter, RoutedOutput, RouterReport, RouterSnapshot, Zone, ZoneId, ZoneMap,
};
pub use service::{
    AdvanceOutcome, AdvanceStatus, DispatchOutput, DispatchService, IngestOutcome, ServiceSnapshot,
    SubmitOutcome,
};
pub use wal::{
    read_wal_bytes, read_wal_file, FlushPolicy, TornTail, WalError, WalReadOutcome, WalRecord,
    WriteAheadLog,
};
