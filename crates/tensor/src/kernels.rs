//! Cache-blocked, optionally multi-threaded GEMM kernels.
//!
//! All kernels compute `out += a · b` for row-major `a` (`m × k`), `b`
//! (`k × n`) and `out` (`m × n`) — the right operand given either as `b`
//! itself or, to [`gemm_bt`], as its transpose `bt` (`n × k` row-major,
//! `b[kc][j] = bt[j·k + kc]`), which the packing step reads in place of a
//! materialized `b` — and all of them accumulate every output
//! element in **ascending k order**. Because IEEE-754 addition is
//! deterministic for a fixed operand order, the blocked kernel, the
//! unrolled micro-kernels and the threaded driver all produce results
//! bit-identical to [`gemm_reference`] — at every thread count — which is
//! what lets the rest of the workspace keep its byte-identical
//! reproducibility contracts while the hot loop gets faster.
//!
//! Blocking scheme (see DESIGN.md "Compute kernels"):
//! * columns are tiled into strips of [`NC`] so the `b` rows and the
//!   output rows being touched stay cache-resident,
//! * `k` is tiled into strips of [`KC`] so each `a` row panel is re-read
//!   from L1 rather than memory,
//! * within a tile, a 4×[`NR`] register micro-kernel holds a block of
//!   partial sums in registers across the whole k-strip (one `b` vector
//!   load and four scalar `a` loads per k step, output written back once
//!   per strip), with per-element additions issued in ascending k order.
//!
//! Threading partitions the output into disjoint row chunks, one per
//! thread, via [`std::thread::scope`]: each output row has exactly one
//! writer and its accumulation order does not depend on the number of
//! threads, so parallelism never changes a single bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Column-strip width (elements of `n` per tile).
const NC: usize = 512;
/// k-strip depth (elements of `k` per tile).
const KC: usize = 128;
/// Below this many multiply-adds, tiling overhead outweighs its benefit
/// and the plain reference loop is used instead.
const BLOCKED_MIN_WORK: u64 = 16 * 1024;
/// Below this many multiply-adds per thread, spawning is a net loss.
const PAR_MIN_WORK: u64 = 4 * 1024 * 1024;
/// Minimum panel height (output rows) before packing the `b` tile into
/// contiguous column panels pays for its extra copy.
const PACK_MIN_ROWS: usize = 32;

thread_local! {
    /// Per-thread packed-`b` tile of [`gemm_panel_loop`], grown on demand
    /// and kept across calls, so a packed GEMM allocates nothing in the
    /// steady state (`KC·NC` floats is 256 KiB: above glibc's default
    /// `mmap` threshold, i.e. a map, page faults and an unmap per call).
    static PACK_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Process-wide thread override set by [`set_gemm_threads`] (0 = unset).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily resolved default thread budget (env var / host parallelism).
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Overrides the GEMM thread budget for this process. `0` restores the
/// automatic choice (`NEURFILL_GEMM_THREADS`, else host parallelism).
/// Results are bit-identical at every setting; this only affects speed.
pub fn set_gemm_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::Relaxed);
}

/// The thread budget [`gemm`] would use for a sufficiently large problem.
#[must_use]
pub fn gemm_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("NEURFILL_GEMM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
    })
}

/// Reference kernel: the plain i-k-j loop, kept as the bit-exactness
/// oracle for the blocked kernels and as the small-problem fallback.
///
/// Unlike the pre-optimization `NdArray::matmul` loop this has **no**
/// zero-skip: `0 × NaN` and `0 × inf` propagate per IEEE-754 instead of
/// being silently dropped.
pub fn gemm_reference(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if n == 0 {
        return;
    }
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &x) in arow.iter().enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += x * bv;
            }
        }
    }
}

/// [`gemm_reference`] on a right operand given transposed: every output
/// element accumulates `a[i][kc] · bt[j][kc]` for `kc` ascending from the
/// value in `out` — the reference's addition sequence, element by element.
fn gemm_bt_reference(a: &[f32], bt: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in a.chunks(k).zip(out.chunks_mut(n)) {
        for (o, btrow) in orow.iter_mut().zip(bt.chunks(k)) {
            let mut t = *o;
            for (x, bv) in arow.iter().zip(btrow) {
                t += x * bv;
            }
            *o = t;
        }
    }
}

/// The thread budget [`gemm`] and [`gemm_bt`] give a problem of this
/// size: throttled so each spawned thread gets at least `PAR_MIN_WORK`
/// multiply-adds; tiny problems stay sequential.
fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    let work = (m as u64) * (k as u64) * (n as u64);
    let by_work = usize::try_from(work / PAR_MIN_WORK).unwrap_or(usize::MAX);
    gemm_threads().min(by_work).max(1)
}

/// Blocked GEMM with automatic thread selection: `out += a · b`.
///
/// Bit-identical to [`gemm_reference`] for every shape and thread count.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_with_threads(a, b, out, m, k, n, auto_threads(m, k, n));
}

/// [`gemm`] on a right operand given transposed: `out += a · btᵀ` for
/// row-major `bt` (`n × k`), without materializing `btᵀ`.
///
/// Bit-identical to [`gemm_reference`] on the transposed matrix for every
/// shape and thread count.
pub fn gemm_bt(a: &[f32], bt: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_bt_with_threads(a, bt, out, m, k, n, auto_threads(m, k, n));
}

/// Blocked GEMM on an explicit thread count (`0` and `1` both mean
/// sequential). The request is honored up to one thread per output row;
/// use [`gemm`] for the work-aware automatic choice.
pub fn gemm_with_threads(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    gemm_driver::<false>(a, b, out, m, k, n, threads);
}

/// [`gemm_bt`] on an explicit thread count, as [`gemm_with_threads`].
pub fn gemm_bt_with_threads(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    gemm_driver::<true>(a, bt, out, m, k, n, threads);
}

/// The one driver behind the four entry points; `BT` says `b` holds the
/// right operand transposed (`n × k`).
fn gemm_driver<const BT: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "lhs buffer does not match {m}x{k}");
    assert_eq!(b.len(), k * n, "rhs buffer does not match {k}x{n}");
    assert_eq!(out.len(), m * n, "out buffer does not match {m}x{n}");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let work = (m as u64) * (k as u64) * (n as u64);
    if work < BLOCKED_MIN_WORK {
        if BT {
            gemm_bt_reference(a, b, out, k, n);
        } else {
            gemm_reference(a, b, out, m, k, n);
        }
        return;
    }
    let threads = threads.max(1).min(m);
    if threads <= 1 {
        gemm_panel::<BT>(a, 0, b, out, m, k, n);
        return;
    }
    // Split the output into disjoint chunks of whole rows, one chunk per
    // thread. `chunks_mut` proves disjointness to the borrow checker;
    // each row keeps the same single writer and k-order as sequential.
    let rows_per = m.div_ceil(threads);
    std::thread::scope(|scope| {
        for (idx, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let row0 = idx * rows_per;
            let rows = chunk.len() / n;
            scope.spawn(move || gemm_panel::<BT>(a, row0, b, chunk, rows, k, n));
        }
    });
}

/// Blocked kernel over one panel of `rows` output rows starting at
/// absolute row `row0`, dispatched to the widest codegen the host
/// supports. All variants run the identical Rust body: per output
/// element nothing but the k-accumulation order matters, and every
/// variant keeps it ascending, so the dispatch affects speed only.
fn gemm_panel<const BT: bool>(
    a: &[f32],
    row0: usize,
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if has_avx2() {
            // SAFETY: has_avx2() verified the required target features.
            unsafe { gemm_panel_avx2::<BT>(a, row0, b, out_panel, rows, k, n) };
            return;
        }
    }
    gemm_panel_body::<4, 8, BT>(a, row0, b, out_panel, rows, k, n);
}

/// [`gemm_panel_body`] compiled with AVX2 codegen: four accumulator rows
/// of two 256-bit registers each (eight independent accumulation
/// chains). rustc never contracts `mul` + `add` into a fused FMA, so
/// wider codegen cannot change a bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_panel_avx2<const BT: bool>(
    a: &[f32],
    row0: usize,
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    gemm_panel_body::<4, 16, BT>(a, row0, b, out_panel, rows, k, n);
}

/// Returns whether the AVX2-compiled kernel body may be called.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// The blocked panel loop, generic over the register block: `MR` output
/// rows × `NR` output columns are held in registers while a k-strip is
/// consumed against them.
#[inline(always)]
fn gemm_panel_body<const MR: usize, const NR: usize, const BT: bool>(
    a: &[f32],
    row0: usize,
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out_panel.len(), rows * n);
    // Packing reads and rewrites the whole `b` tile once per k-strip; it
    // only pays for itself when enough row groups reuse the packed copy.
    // A transposed operand is always packed: unpacked, every `NR`-wide
    // `b` vector the micro-kernels load would be a gather at stride `k`.
    if BT || rows >= PACK_MIN_ROWS {
        gemm_panel_loop::<MR, NR, true, BT>(a, row0, b, out_panel, k, n);
    } else {
        gemm_panel_loop::<MR, NR, false, false>(a, row0, b, out_panel, k, n);
    }
}

/// The tiled loop itself; `PACKED` selects whether micro-kernels read
/// `b` through packed `NR`-wide column panels (`nblocks` panels of
/// `kcw × NR` contiguous floats — sequential loads) or directly at
/// stride `n`. Packing only copies values; it cannot affect results.
/// `BT` (always `PACKED`) says `b` holds the right operand transposed,
/// `n × k`: the packing step and the column tail — the only readers of
/// `b` then — take element `[kc][j]` from `b[j·k + kc]`.
///
/// Within a (k-strip × column-strip) tile, the column block is the
/// *outer* loop and the row groups the inner one, so each `NR`-wide
/// strip of `b` is loaded once and consumed by every row group while it
/// is cache-hot — with `n` large enough that column strides alias in L1,
/// this is what keeps small-`m` problems off the memory wall.
#[inline(always)]
fn gemm_panel_loop<const MR: usize, const NR: usize, const PACKED: bool, const BT: bool>(
    a: &[f32],
    row0: usize,
    b: &[f32],
    out_panel: &mut [f32],
    k: usize,
    n: usize,
) {
    let rows = out_panel.len() / n;
    // Balance the k-strips (e.g. k = 144 → 72 + 72, not 128 + 16): strip
    // boundaries only decide where partial sums pause in `out`; the
    // per-element accumulation order stays ascending in k regardless.
    let kc_even = k.div_ceil(k.div_ceil(KC));
    // The packed tile lives in a per-thread buffer that is only ever grown:
    // every panel read below was written by the packing loop of the same
    // k-strip, so stale contents are never observed and nothing is zeroed.
    let mut packed =
        if PACKED { PACK_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut())) } else { Vec::new() };
    if PACKED && packed.len() < kc_even * NC.min(n) {
        packed.resize(kc_even * NC.min(n), 0.0);
    }
    let mut jj = 0;
    while jj < n {
        let ncw = NC.min(n - jj);
        let nblocks = ncw / NR;
        let mut kk = 0;
        while kk < k {
            let kcw = kc_even.min(k - kk);
            if PACKED {
                for jb in 0..nblocks {
                    let col = jj + jb * NR;
                    let panel = &mut packed[jb * kcw * NR..(jb + 1) * kcw * NR];
                    if BT {
                        // Column `col + l` of the panel is a contiguous run
                        // of row `col + l` of `bt`.
                        for l in 0..NR {
                            let src = &b[(col + l) * k + kk..][..kcw];
                            for (dst, v) in panel[l..].iter_mut().step_by(NR).zip(src) {
                                *dst = *v;
                            }
                        }
                    } else {
                        for (kc, dst) in panel.chunks_mut(NR).enumerate() {
                            let src = (kk + kc) * n + col;
                            dst.copy_from_slice(&b[src..src + NR]);
                        }
                    }
                }
            }
            for jb in 0..nblocks {
                let panel: &[f32] = if PACKED { &packed[jb * kcw * NR..(jb + 1) * kcw * NR] } else { b };
                let j = jj + jb * NR;
                let mut row = 0;
                while row + MR <= rows {
                    block_m::<MR, NR, PACKED>(a, row0 + row, panel, b, out_panel, row, k, n, j, kk, kcw);
                    row += MR;
                }
                while row < rows {
                    block_1::<NR, PACKED>(a, row0 + row, panel, b, out_panel, row, k, n, j, kk, kcw);
                    row += 1;
                }
            }
            // Column tail (< NR): scalar accumulators, same k order.
            for j in jj + nblocks * NR..jj + ncw {
                for row in 0..rows {
                    let arow = &a[(row0 + row) * k..(row0 + row + 1) * k];
                    let mut t = out_panel[row * n + j];
                    for kc in kk..kk + kcw {
                        t += arow[kc] * if BT { b[j * k + kc] } else { b[kc * n + j] };
                    }
                    out_panel[row * n + j] = t;
                }
            }
            kk += kcw;
        }
        jj += ncw;
    }
    if PACKED {
        PACK_SCRATCH.with(|s| *s.borrow_mut() = packed);
    }
}

/// `MR`-row micro-kernel over one k-strip and one `NR`-wide column
/// block: an `MR`×`NR` block of the output is loaded into register
/// accumulators once, the entire k-strip is consumed against it (one `b`
/// vector load and `MR` scalar `a` loads per k), and the block is stored
/// back once. Each accumulator lane sees the updates
/// `t += a[kc]·b[kc][j]` for `kc` ascending — exactly the reference
/// addition sequence — so keeping the partial sums in registers changes
/// memory traffic, never a bit.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_m<const MR: usize, const NR: usize, const PACKED: bool>(
    a: &[f32],
    arow0: usize,
    panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    orow0: usize,
    k: usize,
    n: usize,
    j: usize,
    kk: usize,
    kcw: usize,
) {
    let _ = b;
    let arows: [&[f32]; MR] = core::array::from_fn(|r| &a[(arow0 + r) * k..(arow0 + r + 1) * k]);
    let mut acc = [[0.0f32; NR]; MR];
    for (r, block) in acc.iter_mut().enumerate() {
        let o = (orow0 + r) * n + j;
        block.copy_from_slice(&out_panel[o..o + NR]);
    }
    for kc in 0..kcw {
        let base = if PACKED { kc * NR } else { (kk + kc) * n + j };
        let bv = &panel[base..base + NR];
        for (r, block) in acc.iter_mut().enumerate() {
            let x = arows[r][kk + kc];
            for (t, &bl) in block.iter_mut().zip(bv) {
                *t += x * bl;
            }
        }
    }
    for (r, block) in acc.iter().enumerate() {
        let o = (orow0 + r) * n + j;
        out_panel[o..o + NR].copy_from_slice(block);
    }
}

/// Single-row micro-kernel (row-group remainder): same register-resident
/// accumulation and addition order as [`block_m`], one output row.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_1<const NR: usize, const PACKED: bool>(
    a: &[f32],
    arow: usize,
    panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    orow: usize,
    k: usize,
    n: usize,
    j: usize,
    kk: usize,
    kcw: usize,
) {
    let _ = b;
    let arow = &a[arow * k..(arow + 1) * k];
    let mut acc = [0.0f32; NR];
    let o = orow * n + j;
    acc.copy_from_slice(&out_panel[o..o + NR]);
    for kc in 0..kcw {
        let x = arow[kk + kc];
        let base = if PACKED { kc * NR } else { (kk + kc) * n + j };
        let bv = &panel[base..base + NR];
        for (t, &bl) in acc.iter_mut().zip(bv) {
            *t += x * bl;
        }
    }
    out_panel[o..o + NR].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_pattern(len: usize, seed: u32) -> Vec<f32> {
        // Simple deterministic LCG values in [-1, 1).
        let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (f64::from(state >> 8) / f64::from(1u32 << 24) - 0.5) as f32 * 2.0
            })
            .collect()
    }

    /// Row-major `k × n` → row-major `n × k`.
    fn transposed(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        (0..n * k).map(|i| b[(i % k) * n + i / k]).collect()
    }

    fn check_shape(m: usize, k: usize, n: usize) {
        let a = fill_pattern(m * k, (m * 31 + k) as u32);
        let b = fill_pattern(k * n, (k * 17 + n) as u32);
        let mut want = vec![0.0f32; m * n];
        gemm_reference(&a, &b, &mut want, m, k, n);
        for threads in [1usize, 2, 3, 8] {
            let mut got = vec![0.0f32; m * n];
            gemm_with_threads(&a, &b, &mut got, m, k, n, threads);
            let same = want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits());
            assert!(same, "blocked gemm differs from reference at {m}x{k}x{n}, t={threads}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_shapes() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 4),
            (5, 129, 513),
            (8, 72, 300),
            (9, 131, 517),
            (16, 33, 1025),
            (33, 7, 64),
        ] {
            check_shape(m, k, n);
        }
    }

    #[test]
    fn packed_scratch_is_rewritten_before_it_is_read() {
        // A packed GEMM whose `b` is all NaN leaves the thread's pack
        // scratch full of NaN; packed GEMMs of other shapes run next on the
        // same thread must not see any of it — whichever operand layout
        // filled the scratch, whichever reads it.
        let poison = |bt: bool| {
            let (m, k, n) = (40, 130, 600);
            let (a, nan) = (fill_pattern(m * k, 1), vec![f32::NAN; k * n]);
            let mut poisoned = vec![0.0f32; m * n];
            if bt {
                gemm_bt_with_threads(&a, &nan, &mut poisoned, m, k, n, 1);
            } else {
                gemm_with_threads(&a, &nan, &mut poisoned, m, k, n, 1);
            }
            assert!(poisoned.iter().all(|v| v.is_nan()));
        };
        for (m, k, n) in [(32, 9, 16), (33, 129, 513), (64, 72, 1024), (40, 130, 600), (8, 1024, 72)] {
            let a = fill_pattern(m * k, 2);
            let b = fill_pattern(k * n, 3);
            let bt = transposed(&b, k, n);
            let mut want = vec![0.0f32; m * n];
            gemm_reference(&a, &b, &mut want, m, k, n);
            for (poison_bt, read_bt) in [(false, false), (false, true), (true, false), (true, true)] {
                poison(poison_bt);
                let mut got = vec![0.0f32; m * n];
                if read_bt {
                    gemm_bt_with_threads(&a, &bt, &mut got, m, k, n, 1);
                } else {
                    gemm_with_threads(&a, &b, &mut got, m, k, n, 1);
                }
                let same = want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits());
                assert!(same, "{m}x{k}x{n} poisoned by bt={poison_bt}, read by bt={read_bt}");
            }
        }
    }

    #[test]
    fn transposed_operand_matches_reference_across_shapes() {
        // The fallback, tail-only (`n < NR`), single-row (`m < 4`) and
        // ragged k-strip cases, and the weight-gradient shapes of the UNet.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (2, 300, 9),
            (5, 129, 513),
            (9, 131, 37),
            (8, 1024, 36),
            (16, 256, 144),
            (32, 64, 288),
            (33, 7, 64),
        ] {
            let a = fill_pattern(m * k, (m * 31 + k) as u32);
            let b = fill_pattern(k * n, (k * 17 + n) as u32);
            let bt = transposed(&b, k, n);
            let mut want = fill_pattern(m * n, 9);
            let start = want.clone();
            gemm_reference(&a, &b, &mut want, m, k, n);
            for threads in [1usize, 2, 3, 8] {
                let mut got = start.clone();
                gemm_bt_with_threads(&a, &bt, &mut got, m, k, n, threads);
                let same = want.iter().zip(&got).all(|(w, g)| w.to_bits() == g.to_bits());
                assert!(same, "transposed-operand gemm differs at {m}x{k}x{n}, t={threads}");
            }
        }
    }

    #[test]
    fn zero_times_nan_propagates() {
        // a has an explicit 0 facing a NaN in b: IEEE says the output is
        // NaN, and the old zero-skip would have hidden it.
        let a = vec![0.0f32, 1.0];
        let b = vec![f32::NAN, 2.0];
        let mut out = vec![0.0f32; 1];
        gemm_with_threads(&a, &b, &mut out, 1, 2, 1, 1);
        assert!(out[0].is_nan(), "0 × NaN must propagate, got {}", out[0]);
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut out = vec![1.0f32; 0];
        gemm(&[], &[], &mut out, 0, 3, 0);
        let mut out = vec![0.0f32; 4];
        gemm(&[], &[], &mut out, 2, 0, 2);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn thread_budget_respects_override() {
        set_gemm_threads(3);
        assert_eq!(gemm_threads(), 3);
        set_gemm_threads(0);
        assert!(gemm_threads() >= 1);
    }
}
