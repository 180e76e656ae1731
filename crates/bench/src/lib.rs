//! # foodmatch-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V), plus shared plumbing for the Criterion
//! micro-benchmarks.
//!
//! The entry point is the `repro` binary:
//!
//! ```text
//! cargo run --release -p foodmatch-bench --bin repro -- <experiment|all> [--quick] [--seed 1,2,3] [--ledger-out FILE]
//! cargo run --release -p foodmatch-bench --bin repro -- list
//! ```
//!
//! Each experiment returns its results as [`ledger::Row`]s — experiment,
//! city, series, metric, unit, value — and prints nothing. `repro` prints
//! one table per experiment ([`ledger::print()`]) and, with `--ledger-out`,
//! writes every row with its seed as JSON ([`ledger::to_json`]).
//! `REPRO.json` at the repository root is that ledger for seeds 1–3 at full
//! size; `BENCH_disruptions.json` is the `disruptions --quick` one.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod harness;
pub mod ledger;

pub use harness::ExperimentContext;
