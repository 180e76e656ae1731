//! # foodmatch-matching
//!
//! Minimum-weight bipartite matching substrate for the FoodMatch
//! reproduction.
//!
//! The paper assigns order batches to vehicles by building a bipartite
//! "FoodGraph" and computing a minimum-weight perfect matching (§IV-A),
//! using the Bourgeois–Lassalle extension to rectangular matrices
//! (reference \[19\]) because the number of batches and the number of
//! vehicles rarely agree. After Algorithm 2's sparsification most
//! (batch, vehicle) pairs sit at the rejection penalty Ω, so the crate has
//! one solver, built on that sparsity:
//!
//! * [`Decomposed`] — the dispatch solver: shards the instance by connected
//!   component of the finite-cost graph ([`decompose()`]) and solves the
//!   components with [`sparse_km::solve`] in parallel via
//!   [`parallel::parallel_map`], exactly.
//! * [`sparse_km::solve`] — Kuhn–Munkres via successive shortest paths
//!   directly on the explicit entries; never materialises the Ω cells.
//! * [`SparseCostMatrix`] / [`Assignment`] — the sparse cost storage and the
//!   result, padded to `min(rows, cols)` pairs by the convention in
//!   [`solver`].
//!
//! Its ground truth is in `tests/solver_equivalence.rs`: exhaustive
//! enumeration on small instances and a residual-graph optimality
//! certificate on every instance.
//!
//! The crate is deliberately free of food-delivery concepts: it is a
//! reusable assignment-problem library (and a leaf of the workspace, over
//! `foodmatch-telemetry` only — `parallel_map` lives here so every layer
//! above can share it).
//!
//! ```
//! use foodmatch_matching::{Decomposed, SparseCostMatrix};
//!
//! // Three batches, three vehicles; most pairs are at Ω = 3600 s.
//! let mut costs = SparseCostMatrix::new(3, 3, 3600.0);
//! costs.set(0, 0, 240.0);
//! costs.set(1, 0, 300.0);
//! costs.set(1, 1, 180.0);
//! costs.set(2, 2, 420.0);
//!
//! let assignment = Decomposed::new(4).solve(&costs);
//! assert_eq!(assignment.matched_pairs(), 3);
//! assert_eq!(assignment.total_cost, 240.0 + 180.0 + 420.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decompose;
pub mod matrix;
pub mod parallel;
pub mod solver;
pub mod sparse_km;

pub use decompose::{decompose, Component, Decomposed};
pub use matrix::{Assignment, SparseCostMatrix};
pub use parallel::parallel_map;
