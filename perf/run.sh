#!/usr/bin/env bash
# Builds the `sdnav` binary the serve workload spawns, then runs the
# benchmark harness with every argument passed through. Run it from the
# repository root, e.g.
#
#   bash perf/run.sh --workload sim_sweep --seed 7 --seconds 20 --trace 0
#
# Both builds honour CARGO_TARGET_DIR; the harness looks for the binary in
# the same place.
set -euo pipefail
cargo build --release --offline --quiet -p sdnav-cli
exec cargo run --release --offline --quiet --manifest-path perf/Cargo.toml -- "$@"
