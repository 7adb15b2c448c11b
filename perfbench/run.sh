#!/usr/bin/env bash
# Builds the benchmark and the server it drives, then runs one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); passes run in a scratch directory beneath it.
# The last line of stdout is the JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p bsched-serve --bin bsched-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --repo . \
    --serve-bin "$CARGO_TARGET_DIR/release/bsched-serve" \
    --work "$CARGO_TARGET_DIR/perfbench-work"
