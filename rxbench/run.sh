#!/usr/bin/env bash
# Builds the receiver benchmark from source and runs it. Arguments pass
# through to the binary, e.g.
#   bash rxbench/run.sh --workload dense_4x4 --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --quiet --manifest-path rxbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-rxbench/target}/release/rxbench" "$@"
