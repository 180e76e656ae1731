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
//! The dispatch loop has one implementation — the private `step` module: a
//! `RunState` that lists the run's fields once (with their `Codec`),
//! `RunState::step_window`, one accumulation window as a function of
//! `(state, engine, policy)` with no recorder, log or filesystem under it,
//! and `advance_windows`, the one window clock that decides which windows
//! close — and four entry points, from batch replay to a crash-safe service:
//!
//! * **Batch** — [`Simulation`] wraps a pre-materialized scenario and
//!   [`Simulation::run`] replays it through a fresh service, start to drain.
//!   Use this for the paper's experiments and any offline comparison;
//!   `tests/service_equivalence.rs` pins it bit-identical to streaming.
//! * **Streaming** — [`DispatchService`] is the thin shell over one run
//!   state (engine, policy, telemetry handles).
//!   [`DispatchService::submit_order`] and [`DispatchService::ingest_event`]
//!   feed demand and disruptions in as they happen (typed [`SubmitOutcome`]
//!   / [`IngestOutcome`] verdicts), [`DispatchService::advance_to`] steps
//!   the clock and returns typed [`DispatchOutput`] events, and
//!   [`DispatchService::snapshot`] / [`DispatchService::report`] expose the
//!   state and metrics mid-run. Use this when demand is not known in
//!   advance: live sources, closed-loop experiments, services.
//! * **Sharded** — [`DispatchRouter`] is the same surface over N run states
//!   on one window clock, one per zone of a [`ZoneMap`]: orders route by
//!   restaurant, disruption events by their
//!   [`EventScope`](foodmatch_events::EventScope), and each window steps
//!   every zone concurrently into one deterministic stream of
//!   [`RoutedOutput`]s. `tests/router_equivalence.rs` pins a single-zone
//!   router bit-identical to a bare service, and thread-count independence.
//! * **Durable** — [`DurableDispatch`] wraps a service or router and makes
//!   it crash-safe: every mutating call is appended to a checksummed
//!   [`WriteAheadLog`] *before* it is applied, with a [`FlushPolicy`]
//!   amortising the fsync (per record or per accumulation window — the
//!   acked/appended ledger makes the durability lag explicit). The run
//!   states checkpoint ([`DispatchService::checkpoint`] /
//!   [`DispatchRouter::checkpoint`], a clone) into one atomically written
//!   container file for either shape ([`save_checkpoint`] /
//!   [`load_checkpoint`]), persisted at the window boundary by a
//!   [`Checkpointer`], whose sealed checkpoints anchor
//!   [log compaction](WriteAheadLog::compact_below). Recovery — restore the
//!   latest checkpoint, [`replay_wal`] the log suffix — lands on the exact
//!   state and output stream of a valid prefix run ending at a flush
//!   boundary. Torn log tails are truncated; any other corruption is a
//!   typed [`WalError`] / [`CheckpointError`], never a panic.
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
    load_checkpoint, save_checkpoint, BackgroundCheckpointer, CheckpointError, Checkpointer,
    RestoreError, RouterCheckpoint, ServiceCheckpoint,
};
pub use durable::{replay_wal, DurableDispatch, FailMode, FailPoint, ReplayError, WalTarget};
pub use engine::Simulation;
pub use fleet::{FleetEvent, ItineraryStep, VehicleState};
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
