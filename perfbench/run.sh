#!/usr/bin/env bash
# Builds the cmmf-serve daemon and the benchmark from this checkout, then
# runs the benchmark with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload paper-default --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# progress goes to stderr, so the last line of stdout is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/core || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a cmmf-hls checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path Cargo.toml --bin cmmf-serve >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cmmf-perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/cmmf-serve" "$@"
