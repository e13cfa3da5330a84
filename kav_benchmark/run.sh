#!/usr/bin/env bash
# Builds `kav` and the benchmark from source, then runs the benchmark with
# the given arguments. Run it from the root of the repository:
#
#   bash kav_benchmark/run.sh --workload replay-ndjson --seed 42 --seconds 12 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); everything
# after the build is the benchmark's own output.
set -euo pipefail

if [[ ! -f crates/cli/Cargo.toml || ! -f kav_benchmark/Cargo.toml ]]; then
    echo "kav_benchmark/run.sh: run from the repository root (crates/cli is missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p kav_cli --bin kav >&2
cargo build --release --offline --quiet --manifest-path kav_benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kav_benchmark" --kav "$CARGO_TARGET_DIR/release/kav" "$@"
