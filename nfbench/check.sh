#!/usr/bin/env bash
# The gate for nfbench itself: formatting, lints, unit tests, and a smoke
# pass of all four workloads (reduced job counts, same shapes), untraced
# and traced. Run from anywhere; builds into nfbench/target unless
# CARGO_TARGET_DIR says otherwise.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release -q
cargo build --offline --release -q
bin="${CARGO_TARGET_DIR:-target}/release/nfbench"

start=$SECONDS
for workload in flow_abc serve_burst chip_nn chip_golden; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --smoke --trace "$trace" | tail -n 1 | grep -q '"correct": true' \
            || { echo "check.sh: $workload --trace $trace failed its checks" >&2; exit 1; }
    done
done
echo "check.sh: smoke pass of 4 workloads x 2 modes in $((SECONDS - start)) s"
