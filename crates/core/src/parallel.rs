//! Deterministic scoped fan-out for the dispatch hot path.
//!
//! Per-window dispatch work — FoodGraph per-vehicle edge construction, the
//! batching stage's per-stop oracle sweeps (per-order route plans when
//! batching is off), per-component assignment solving — consists of many
//! independent evaluations against shared `Send + Sync` state, each at least
//! a graph search; Algorithm 1's merge candidates are microsecond table
//! plans and stay on the calling thread. [`parallel_map`] fans such work out across
//! `std::thread::scope` workers while keeping the output *bit-for-bit
//! identical* to the serial path: items are split into contiguous chunks,
//! every worker writes only its own chunk, and results come back in input
//! order. [`DispatchConfig::effective_threads`](crate::DispatchConfig)
//! decides the fan-out width.
//!
//! The implementation lives in [`foodmatch_matching::parallel`] — the
//! workspace's dependency-free leaf crate — so the matching layer
//! ([`Decomposed`](foodmatch_matching::Decomposed)), the road network layer
//! (`ShortestPathEngine::warm_all`), and this crate all share one
//! primitive; this module re-exports it under the historical
//! `foodmatch_core::parallel` path.

pub use foodmatch_matching::parallel::parallel_map;
