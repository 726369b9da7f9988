#!/usr/bin/env bash
# Builds `chasectl` and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash servebench/run.sh --workload warm_mix_open --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --workload cold_chase_closed --seed 1 --seconds 10 --steady 10
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); the server's socket lives
# in .servebench/ while a run lasts.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p chase-cli >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --chasectl "$CARGO_TARGET_DIR/release/chasectl" "$@"
