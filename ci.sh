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

# Debug builds re-evaluate every anchored and every certified contact probe
# with powf, and assert every certified pressure and exact-probe term
# against powf (all skip rules are asserted on every board the suites
# simulate); release builds are the shipped path that actually skips. Both
# must match the reference bits. The release-only proofs answer every probe
# near the root of all 50 boards of one layer of chip_golden's chip from the
# anchors, by certification and with powf, and compare every certified
# pressure and every exact-probe term of all 150 boards of its three layers
# with k·powf(d, 3/2), pinning the share left to powf; bit_identity pins the
# powf-probe count on that chip (at most 0.4 per solve) next to its
# sharded == monolithic bytes.
echo "== anchored + certified contact solve and certified pressures, release build (bitwise vs reference, sharded == monolithic, chip_golden boards)"
cargo test --release -p neurfill-cmpsim --test kernel_equivalence -q
cargo test --release -p neurfill-cmpsim --lib contact::tests::anchored_and_certified_answers_match_powf_on_chip_golden_boards -q
cargo test --release -p neurfill-cmpsim --lib contact::tests::certified_pressures_match_powf_on_all_chip_golden_boards -q
cargo test --release -p neurfill-chip --test bit_identity -q

# The line search, the frozen-surrogate backward, the row-span im2col/col2im,
# the column-filtered insertion scan, the streamed (sink) insertion, the fused
# norm + ReLU node (evaluation and training mode), the scratch-reusing
# convolution backward and the direct convolution forward each replaced
# code that now lives on as a test-only oracle (the direct forward's: the
# im2col + GEMM forward, called through the plain body and the AVX2 build
# directly; the forward is also run by the steady-state count of
# `infer_allocations`).
# The workspace run above compared them in debug, this compares the
# optimized code that ships — whose heap footprint per job and per training
# step is the one `live_heap` pins, and whose trained weights `training_pin`
# pins at the parent of the change that fused the training node. Scores and
# batched predictions run the one taped UNet definition on a frozen network:
# `batch` and `score_only` pin them to the gradient path's forward, and
# `tape_reuse` pins a gradient that reuses the accepted trial's taped forward
# to one that runs its own. The `sqp` suite pins a capped solve to the prefix
# of a longer one, which is what lets the flow's iteration cap stop a job
# early without moving a bit of the iterations it keeps. The row-accumulated
# pad kernel is compared with
# `apply_reference` through its plain body and its AVX2 build (register
# blocks), each called directly; the contact suite answers every bisection
# probe of A/B/C's boards from the anchors (checked with `√d·d`), by
# certification and with `powf`, and calls the certified pressures' FMA
# body and the powf-only body directly against `k·powf` (the chip_golden
# boards ran in the block above).
echo "== replacement-vs-oracle suites, release build (line search, SQP prefix, frozen + per-layer planarity, tape reuse, score + batched forward, im2col/col2im + conv backward, direct conv forward, insertion + sink, fused norm node, pad kernel windows, anchor + certification checks, certified pressures, trajectory + training pins, live heap per job and per training step)"
cargo test --release -p neurfill-cmpsim --lib kernel -q
cargo test --release -p neurfill-cmpsim --lib contact -q -- --skip chip_golden_boards
cargo test --release -p neurfill-optim --lib linesearch -q
cargo test --release -p neurfill-optim --lib sqp -q
cargo test --release -p neurfill --lib frozen_planarity -q
cargo test --release -p neurfill --lib per_layer_backward -q
cargo test --release -p neurfill --lib framework::tests::tape_reuse -q
cargo test --release -p neurfill --lib score_only -q
cargo test --release -p neurfill-nn --lib batch -q
cargo test --release -p neurfill-tensor --lib ops::conv -q
cargo test --release -p neurfill-tensor --test gemm_equivalence -q
cargo test --release -p neurfill-nn --test infer_allocations -q
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

echo "== serve service suite"
cargo test -p neurfill-serve --test service -q
cargo test -p neurfill-serve --test http_hardening -q

echo "== chip bit-identity suite (sharded == monolithic, any tiling)"
cargo test -p neurfill-chip --test bit_identity -q
cargo test -p neurfill-layout --test tiling_props -q

echo "== durability suite (append log, journal, shard finalize, hostile bytes into the plan codec)"
cargo test -p neurfill-data -q
cargo test -p neurfill-layout --test plan_codec -q

echo "== chaos/recovery suite (kill-at-every-ordinal, bit-identical resume)"
cargo test -p neurfill-runtime --test wait_first -q
cargo test -p neurfill-chip --test checkpoint_resume -q
cargo test -p neurfill-serve --test recovery -q

echo "== frozen benchmark gate (nfbench fmt, clippy, unit tests, --smoke of all four workloads)"
nfbench/check.sh

echo "CI OK"
