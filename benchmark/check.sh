#!/usr/bin/env bash
# Gate for the benchmark crate itself: format, lints, unit tests, then a
# smoke run of every workload (both passes, all three correctness checks).
# Run from anywhere; ready to be wired into CI by a later change.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- all --smoke --seed 1
