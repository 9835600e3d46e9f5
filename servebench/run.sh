#!/usr/bin/env bash
# Builds `hubserve` and the benchmark from source, then runs one benchmark
# invocation from the repository root:
#
#   bash servebench/run.sh --workload gnm-batch|rmat-zipf|gnm-routed \
#       [--seed N] [--seconds S] [--trace 0|1]
#   bash servebench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); runs keep
# their stores and span files under .bench_work.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "servebench: needs a checkout of the repository around it" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hl-net --bin hubserve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --hubserve "$CARGO_TARGET_DIR/release/hubserve" "$@"
