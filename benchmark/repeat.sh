#!/usr/bin/env bash
# repeat.sh N [--seed S] [--vary-seed]: runs the untraced pass of every
# workload N times on the checked-out commit and prints, per workload and
# end-to-end metric, min / median / max and the quartile spread as a share
# of the metric's bound. With --vary-seed run i uses seed S + i, which is
# how the driver that accepts the benchmark measures the spread.
set -euo pipefail
cd "$(dirname "$0")/.."
count=${1:?usage: repeat.sh N [--seed S] [--vary-seed]}
shift
exec cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- repeat "$count" "$@"
