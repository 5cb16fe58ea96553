#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, tests.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# neurfill-runtime, neurfill (core), neurfill-obs, neurfill-tensor,
# neurfill-nn, neurfill-cmpsim, neurfill-serve, neurfill-chip and
# neurfill-data deny clippy::unwrap_used / clippy::expect_used at the
# crate level (lib + bins, tests exempt); this run enforces it.
echo "== cargo clippy (no unwrap/expect in lib+bins)"
cargo clippy -p neurfill-runtime -p neurfill -p neurfill-obs \
    -p neurfill-tensor -p neurfill-nn -p neurfill-cmpsim \
    -p neurfill-serve -p neurfill-chip -p neurfill-data \
    --lib --bins -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo bench --no-run (compile-only)"
cargo bench --workspace --no-run

echo "== cargo test -q"
cargo test -q

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== telemetry suite"
cargo test -p neurfill-obs -q

echo "== kernel-equivalence suite (bitwise determinism)"
cargo test -p neurfill-tensor --test gemm_equivalence -q
cargo test -p neurfill-cmpsim --test kernel_equivalence -q
cargo test -p neurfill-nn --test determinism -q

# Debug builds re-evaluate every anchored contact probe (the skip rule is
# asserted on every board the suites simulate); release builds are the
# shipped path that actually skips. Both must match the reference bits.
echo "== anchored contact solve, release build (bitwise vs reference, sharded == monolithic)"
cargo test --release -p neurfill-cmpsim --test kernel_equivalence -q
cargo test --release -p neurfill-chip --test bit_identity -q

# The line search, the frozen-surrogate backward, the row-span im2col/col2im,
# the column-filtered insertion scan, the streamed (sink) insertion, the fused
# norm + ReLU node (evaluation and training mode) and the scratch-reusing
# convolution backward each replaced code that now lives on as a test-only
# oracle; the workspace run above compared them in debug, this compares the
# optimized code that ships — whose heap footprint per job and per training
# step is the one `live_heap` pins, and whose trained weights `training_pin`
# pins at the parent of the change that fused the training node.
echo "== replacement-vs-oracle suites, release build (line search, frozen + per-layer planarity, im2col/col2im + conv backward, insertion + sink, fused norm node, trajectory + training pins, live heap per job and per training step)"
cargo test --release -p neurfill-optim --lib linesearch -q
cargo test --release -p neurfill --lib frozen_planarity -q
cargo test --release -p neurfill --lib per_layer_backward -q
cargo test --release -p neurfill-tensor --lib ops::conv -q
cargo test --release -p neurfill-layout --lib insertion -q
cargo test --release -p neurfill-nn --lib layers::norm::tests::fused -q
cargo test --release --test trajectory_pin -q
cargo test --release --test training_pin -q
cargo test --release --test live_heap -q

# A pool job's `predicted` is pinned bit-equal to per-layer single forwards
# on the sequential flow's network; the workspace run above checked the
# debug build, this checks the optimized one that ships.
echo "== runtime smoke, release build (JobReport::predicted bitwise vs sequential)"
cargo test --release -p neurfill-runtime --test runtime_smoke -q

echo "== kernel bench (compile-only)"
cargo bench -p neurfill-bench --bench kernels --no-run

echo "== serve service suite"
cargo test -p neurfill-serve --test service -q
cargo test -p neurfill-serve --test http_hardening -q

echo "== serve bench (compile-only)"
cargo bench -p neurfill-bench --bench serve --no-run

echo "== chip bit-identity suite (sharded == monolithic, any tiling)"
cargo test -p neurfill-chip --test bit_identity -q
cargo test -p neurfill-layout --test tiling_props -q

echo "== fullchip bench (compile-only)"
cargo bench -p neurfill-bench --bench fullchip --no-run

echo "== durability suite (append log, journal, shard finalize)"
cargo test -p neurfill-data -q

echo "== chaos/recovery suite (kill-at-every-ordinal, bit-identical resume)"
cargo test -p neurfill-runtime --test wait_first -q
cargo test -p neurfill-chip --test checkpoint_resume -q
cargo test -p neurfill-serve --test recovery -q

echo "== recovery bench (compile-only)"
cargo bench -p neurfill-bench --bench recovery --no-run

echo "== frozen benchmark gate (nfbench fmt, clippy, unit tests, --smoke of all four workloads)"
nfbench/check.sh

echo "CI OK"
