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

# The contact solve is a safeguarded Newton iteration, certified to a
# tolerance against the bisection it replaced (contact::tests): a fallback
# answers the bisection's bits; a Newton answer lies within the bisection's
# 1e-9 nm stopping width of it and leaves a double-double force residual
# within its stated bound; a polish loop ends within 1e-8 nm of one on the
# bisection. Random, flat, hard and A/B/C boards run in both builds, all 50
# boards of layer 0 of chip_golden's chip in release only. bit_identity's
# release-only test pins the Newton passes of chip_golden's 300 solves (at
# most 4 per solve on average, none falling back to the bisection) next to
# the bytes of both of its simulations: the chip assembled tile at a time
# equals the monolithic simulator at any tiling.
echo "== contact solve certification and chip bit identity, release build (Newton vs bisection, chip_golden boards and solves, tile-assembled chip == monolithic simulator at any tiling)"
cargo test --release -p neurfill-cmpsim --lib contact -q
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
# to one that runs its own. `one_training_path` pins the corpus path
# (labeled shards, `train_streaming`) to `train_surrogate` / `fit` bit for
# bit, and `hostile_layout` feeds both layout readers `dims` headers that
# claim billions of windows under an allocator that refuses large blocks. The `sqp` suite pins a capped solve to the prefix
# of a longer one, which is what lets the flow's iteration cap stop a job
# early without moving a bit of the iterations it keeps, and runs its
# convergence, NaN, failed-search and feasibility cases at `memory: 0`
# too (projected steepest ascent, the ablation baseline). The row-accumulated
# pad kernel is compared with
# `apply_reference` through its plain body and its AVX2 build (register
# blocks), each called directly, and with the `kernel_equivalence`
# proptests over every window shape.
echo "== replacement-vs-oracle suites, release build (line search, SQP prefix, frozen + per-layer planarity, tape reuse, score + batched forward, im2col/col2im + conv backward, direct conv forward, insertion + sink, fused norm node, pad kernel windows, trajectory + training pins, one training path, live heap per job and per training step, hostile layout headers)"
cargo test --release -p neurfill-cmpsim --lib kernel -q
cargo test --release -p neurfill-cmpsim --test kernel_equivalence -q
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
cargo test --release -p neurfill-data --test one_training_path -q
cargo test --release --test live_heap -q
cargo test --release -p neurfill-layout --test hostile_layout -q

# A pool job's `predicted` is pinned bit-equal to per-layer single forwards
# on the sequential flow's network; the workspace run above checked the
# debug build, this checks the optimized one that ships.
echo "== runtime smoke, release build (JobReport::predicted bitwise vs sequential)"
cargo test --release -p neurfill-runtime --test runtime_smoke -q

echo "== serve service suite"
cargo test -p neurfill-serve --test service -q
cargo test -p neurfill-serve --test http_hardening -q

echo "== chip bit-identity suite (tile-assembled chip == monolithic simulator at any tiling)"
cargo test -p neurfill-chip --test bit_identity -q
cargo test -p neurfill-layout --test tiling_props -q

# hostile_shard runs in the debug build, where overflow checks turn a
# dimension product that overflows into a failing panic.
echo "== durability suite (append log, tile checkpoint, shard log and its hostile bytes, hostile bytes into the append log and the plan codec)"
cargo test -p neurfill-runtime --lib applog -q
cargo test -p neurfill-runtime --test hostile_applog -q
cargo test -p neurfill-chip --lib checkpoint -q
cargo test -p neurfill-data -q
cargo test -p neurfill-data --test hostile_shard -q
cargo test -p neurfill-layout --test plan_codec -q

# `wait`, `wait_first` and `wait_timeout` take a terminal status and the
# pool forgets the job; `fault_injection` and the pool's unit tests pin
# what `wait` and `cancel` answer once a job has been taken. A failed job
# runs once: `fault_injection` pins that an injected error fails its job
# the first time, and the `cli` suite that both binaries refuse the
# removed `--retries` flag, a bad fault plan and a number that would
# panic or turn a check off (a negative, NaN or infinite number of
# seconds, a chip with zero rows, a NaN canary tolerance) before reading
# any file. `gendata`'s refusal of a zero-sized layout or chip runs in
# the durability block's `-p neurfill-data`.
echo "== chaos/recovery suite (kill-at-every-ordinal, bit-identical resume, take-on-wait pool answers, a failed job runs once, CLIs refuse numbers that would panic)"
cargo test -p neurfill-runtime --test wait_first -q
cargo test -p neurfill-runtime --test fault_injection -q
cargo test -p neurfill-runtime --lib pool -q
cargo test -p neurfill-serve --test cli -q
cargo test -p neurfill-chip --test checkpoint_resume -q
cargo test -p neurfill-serve --test recovery -q

echo "== frozen benchmark gate (nfbench fmt, clippy, unit tests, --smoke of all four workloads)"
nfbench/check.sh

echo "CI OK"
